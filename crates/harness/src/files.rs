//! The file side of a campaign: spec and artifact loading, atomic
//! artifact and metadata writes, and the post-run report that `bat
//! campaign` prints.

use bat_cache::CacheError;
use bat_core::t4::{T4Metadata, T4_SCHEMA_VERSION};
use bat_core::Error;

use crate::campaign::CampaignRun;
use crate::result::{CampaignResult, RESULT_SCHEMA};
use crate::spec::{ExperimentSpec, SPEC_SCHEMA};
use crate::summary::CampaignSummary;

/// Load and parse a campaign spec file.
pub fn load_spec_file(path: &str) -> Result<ExperimentSpec, Error> {
    let text =
        std::fs::read_to_string(path).map_err(|e| Error::io(format!("reading {path}: {e}")))?;
    ExperimentSpec::from_json(&text).map_err(|e| Error::spec(format!("parsing {path}: {e}")))
}

/// Load and parse a campaign result artifact.
pub fn load_result_file(path: &str) -> Result<CampaignResult, Error> {
    let text =
        std::fs::read_to_string(path).map_err(|e| Error::io(format!("reading {path}: {e}")))?;
    parse_result(path, &text)
}

/// The artifact `--resume` continues from: `None` when `path` does not
/// exist yet. Any other read or parse failure is an error, since silently
/// re-running would overwrite the artifact.
pub(crate) fn read_resume_artifact(path: &str) -> Result<Option<CampaignResult>, Error> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse_result(path, &text).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(Error::io(format!("reading {path}: {e}"))),
    }
}

fn parse_result(path: &str, text: &str) -> Result<CampaignResult, Error> {
    CampaignResult::from_json(text).map_err(|e| Error::spec(format!("parsing {path}: {e}")))
}

/// Map a `bat/cache/v1` load or save failure onto the unified error
/// hierarchy.
pub fn cache_error(e: CacheError) -> Error {
    match e {
        CacheError::Io(m) => Error::io(m),
        CacheError::Parse(m) => Error::spec(m),
    }
}

/// Write a document atomically (temp file + rename) so a crash mid-write
/// cannot leave a corrupt file — for the artifact that would make the
/// next `--resume` abort, for the metadata it would break any consumer.
fn write_atomic(path: &str, contents: &str) -> Result<(), Error> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents).map_err(|e| Error::io(format!("writing {tmp}: {e}")))?;
    std::fs::rename(&tmp, path).map_err(|e| Error::io(format!("renaming {tmp} to {path}: {e}")))
}

pub(crate) fn write_artifact(path: &str, result: &CampaignResult) -> Result<(), Error> {
    write_atomic(path, &result.to_json())
}

/// The T4 metadata document describing a campaign's environment: suite,
/// backend, schemas and a human-readable objective description. Emitted
/// alongside every written artifact (`<out>.meta.json`) so campaign
/// results travel with self-describing context, T4-ecosystem style. A pure
/// function of the spec — byte-deterministic like the artifact itself.
pub fn campaign_metadata(spec: &ExperimentSpec) -> T4Metadata {
    let hardware = match spec.validate() {
        Ok((_, _, architectures)) => architectures.join(", "),
        Err(_) => "unknown".to_string(),
    };
    let mut md = T4Metadata::for_platform(hardware);
    md.environment
        .insert("campaign".to_string(), spec.name.clone());
    md.environment
        .insert("objective".to_string(), spec.objective.describe());
    md.environment
        .insert("spec_schema".to_string(), SPEC_SCHEMA.to_string());
    md.environment
        .insert("result_schema".to_string(), RESULT_SCHEMA.to_string());
    md.environment
        .insert("t4_schema".to_string(), T4_SCHEMA_VERSION.to_string());
    md
}

/// Path of the metadata document emitted next to an artifact.
pub fn metadata_path(out: &str) -> String {
    format!("{out}.meta.json")
}

pub(crate) fn write_metadata(out: &str, spec: &ExperimentSpec) -> Result<(), Error> {
    write_atomic(&metadata_path(out), &campaign_metadata(spec).to_json())
}

/// Print the shared post-run report to stderr: summary tables and the
/// throughput line (unless `quiet`), plus a warning naming every trial
/// that found no valid configuration — so a `--strict` failure is
/// actionable from the log alone, not just a count. Returns the
/// failed-trial count so strict front-ends can gate on it.
pub fn report_run(run: &CampaignRun, quiet: bool) -> usize {
    if !quiet {
        eprint!("{}", CampaignSummary::from_result(&run.result).render());
        eprintln!("\n{}", run.report());
    }
    let failed = run.result.failed_trial_keys();
    if !failed.is_empty() {
        eprintln!(
            "warning: {} trial(s) found no valid configuration:",
            failed.len()
        );
        for key in &failed {
            eprintln!("  {key}");
        }
    }
    failed.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignOptions, CHECKPOINT_TRIALS};
    use crate::spec::Selector;

    fn spec() -> ExperimentSpec {
        ExperimentSpec {
            tuners: Selector::Subset(vec!["random-search".into()]),
            benchmarks: Selector::Subset(vec!["nbody".into()]),
            architectures: Selector::Subset(vec!["RTX 3060".into()]),
            budget: 10,
            repetitions: 1,
            ..ExperimentSpec::new("files-unit")
        }
    }

    fn temp_out(name: &str) -> String {
        let dir = std::env::temp_dir().join("bat-harness-files-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path.to_str().unwrap().to_string()
    }

    fn to_file(out: &str, resume: bool) -> CampaignOptions {
        CampaignOptions {
            out: Some(out.to_string()),
            resume,
            ..CampaignOptions::default()
        }
    }

    #[test]
    fn run_write_resume_round_trip() {
        let out = temp_out("artifact.json");

        // Missing artifact + resume degenerates to a full run.
        let first = run_campaign(&spec(), &to_file(&out, true)).unwrap();
        assert_eq!(first.executed, 1);
        // Resuming from the written artifact reuses everything.
        let second = run_campaign(&spec(), &to_file(&out, true)).unwrap();
        assert_eq!(second.reused, 1);
        assert_eq!(second.result, first.result);
        assert_eq!(load_result_file(&out).unwrap(), first.result);

        // A corrupt artifact is an error naming the file, not a silent
        // re-run.
        std::fs::write(&out, "{ not json").unwrap();
        let err = run_campaign(&spec(), &to_file(&out, true)).unwrap_err();
        assert!(err.to_string().contains(&out), "{err}");
        std::fs::remove_file(&out).unwrap();
    }

    #[test]
    fn checkpointed_batches_reproduce_the_single_shot_artifact() {
        // More trials than one checkpoint batch (2 tuners × 2 benchmarks
        // × 10 reps = 40 on a tiny budget) forces at least one mid-run
        // artifact write before completion; the assert pins the relation
        // so a larger CHECKPOINT_TRIALS cannot make this vacuous.
        let spec = ExperimentSpec {
            tuners: Selector::Subset(vec!["random-search".into(), "greedy-ils".into()]),
            benchmarks: Selector::Subset(vec!["nbody".into(), "gemm".into()]),
            repetitions: 10,
            budget: 5,
            ..spec()
        };
        assert!(spec.compile().unwrap().len() > CHECKPOINT_TRIALS);
        let out = temp_out("checkpointed.json");
        let batched = run_campaign(&spec, &to_file(&out, false)).unwrap();
        let single = run_campaign(&spec, &CampaignOptions::default()).unwrap();
        assert_eq!(batched.executed, single.result.trials.len());
        assert_eq!(batched.result.to_json(), single.result.to_json());
        assert_eq!(
            std::fs::read_to_string(&out).unwrap(),
            single.result.to_json()
        );
        std::fs::remove_file(&out).unwrap();
    }

    #[test]
    fn partial_artifact_resumes_to_the_full_result() {
        let spec = ExperimentSpec {
            repetitions: 6,
            ..spec()
        };
        let full = run_campaign(&spec, &CampaignOptions::default()).unwrap();
        // Simulate an interrupted checkpoint: only 2 of 6 trials done.
        let mut partial = full.result.clone();
        partial.trials.truncate(2);
        let out = temp_out("partial.json");
        std::fs::write(&out, partial.to_json()).unwrap();
        let resumed = run_campaign(&spec, &to_file(&out, true)).unwrap();
        assert_eq!(resumed.reused, 2);
        assert_eq!(resumed.executed, 4);
        assert_eq!(resumed.result.to_json(), full.result.to_json());
        std::fs::remove_file(&out).unwrap();
    }

    #[test]
    fn flag_combinations_are_validated() {
        let resume_nowhere = CampaignOptions {
            resume: true,
            ..CampaignOptions::default()
        };
        assert!(run_campaign(&spec(), &resume_nowhere).is_err());
    }

    #[test]
    fn metadata_document_is_emitted_and_deterministic() {
        let out = temp_out("with-meta.json");
        run_campaign(&spec(), &to_file(&out, false)).unwrap();
        let meta1 = std::fs::read_to_string(metadata_path(&out)).unwrap();
        run_campaign(&spec(), &to_file(&out, false)).unwrap();
        let meta2 = std::fs::read_to_string(metadata_path(&out)).unwrap();
        assert_eq!(meta1, meta2, "metadata must be byte-deterministic");
        let md = bat_core::t4::T4Metadata::from_json(&meta1).unwrap();
        assert_eq!(md.hardware, "RTX 3060");
        assert_eq!(md.environment["campaign"], "files-unit");
        assert!(md.environment["objective"].contains("time"));
        assert_eq!(md.environment["spec_schema"], crate::spec::SPEC_SCHEMA);
        std::fs::remove_file(&out).unwrap();
        std::fs::remove_file(metadata_path(&out)).unwrap();
    }

    #[test]
    fn merged_shard_files_reproduce_the_unsharded_artifact() {
        use crate::spec::ShardSpec;
        let base = ExperimentSpec {
            repetitions: 4,
            ..spec()
        };
        let full = run_campaign(&base, &CampaignOptions::default()).unwrap();
        let mut inputs = Vec::new();
        for index in 0..2 {
            let shard_spec = ExperimentSpec {
                shard: Some(ShardSpec { index, count: 2 }),
                ..base.clone()
            };
            let out = temp_out(&format!("shard-{index}.json"));
            run_campaign(&shard_spec, &to_file(&out, false)).unwrap();
            inputs.push(out);
        }
        let merged_out = temp_out("merged.json");
        let merge = inputs
            .iter()
            .map(|p| load_result_file(p).unwrap())
            .collect();
        let run = run_campaign(
            &base,
            &CampaignOptions {
                merge,
                ..to_file(&merged_out, false)
            },
        )
        .unwrap();
        assert_eq!(run.executed, 0);
        assert_eq!(run.reused, 4);
        assert_eq!(
            std::fs::read_to_string(&merged_out).unwrap(),
            full.result.to_json()
        );
        for p in inputs.iter().chain([&merged_out]) {
            std::fs::remove_file(p).unwrap();
            let _ = std::fs::remove_file(metadata_path(p));
        }
    }
}
