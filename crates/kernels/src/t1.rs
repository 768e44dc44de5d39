//! T1 — the benchmark-specification JSON format of the BAT ecosystem.
//!
//! BAT 2.0 defines each benchmark in a JSON document (the "T1" schema of
//! the autotuning-interchange family that T4 results belong to): a
//! `general` block naming the benchmark, a `configuration_space` block with
//! the tuning parameters and constraint expressions, and a
//! `kernel_specification` block describing the kernel itself. The shared
//! problem interface of the paper is exactly this document: tuners that can
//! read it can tune the benchmark.
//!
//! This module exports every built-in benchmark as a T1 document and can
//! construct a [`ConfigSpace`] *from* one — so custom benchmarks can be
//! defined in JSON without writing Rust:
//!
//! ```
//! use bat_kernels::t1::{space_from_t1, to_t1, T1Document};
//! use bat_kernels::{GemmKernel, KernelSpec};
//!
//! let doc = to_t1(&GemmKernel::default(), "CUDA");
//! let space = space_from_t1(&doc).unwrap();
//! assert_eq!(space.cardinality(), 82_944);
//!
//! let json = doc.to_json();
//! let parsed = T1Document::from_json(&json).unwrap();
//! assert_eq!(parsed, doc);
//! ```

use serde::{Deserialize, Serialize};

use bat_space::{ConfigSpace, Param, SpaceError};

use crate::common::KernelSpec;

/// Schema version written by this implementation.
pub const T1_SCHEMA_VERSION: &str = "1.0.0";

/// The `general` block: benchmark identity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct T1General {
    /// Benchmark name.
    pub benchmark_name: String,
    /// Schema version.
    pub schema_version: String,
}

/// One tuning parameter: a name plus its ordered value list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct T1Parameter {
    /// Parameter name (usable in constraint expressions).
    pub name: String,
    /// Parameter type; this suite's parameters are all `"int"`.
    #[serde(rename = "type")]
    pub ty: String,
    /// Ordered candidate values.
    pub values: Vec<i64>,
}

/// The `configuration_space` block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct T1ConfigurationSpace {
    /// Tuning parameters, in space order.
    pub tuning_parameters: Vec<T1Parameter>,
    /// Constraint expression strings (Python-like syntax, as used by
    /// Kernel Tuner restriction strings).
    #[serde(default)]
    pub constraints: Vec<String>,
}

/// The `kernel_specification` block (descriptive; the simulator consumes
/// the in-process cost model rather than compiling this).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct T1KernelSpecification {
    /// Source language of the kernel.
    pub language: String,
    /// Kernel entry-point name.
    pub kernel_name: String,
}

/// A complete T1 benchmark-specification document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct T1Document {
    /// Identity block.
    pub general: T1General,
    /// The tunable space.
    pub configuration_space: T1ConfigurationSpace,
    /// Kernel description.
    pub kernel_specification: T1KernelSpecification,
}

impl T1Document {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("T1 document serializes")
    }

    /// Parse a T1 document.
    pub fn from_json(s: &str) -> Result<T1Document, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Export a benchmark's specification as a T1 document.
pub fn to_t1(spec: &dyn KernelSpec, language: &str) -> T1Document {
    let space = spec.build_space();
    let tuning_parameters = space
        .params()
        .iter()
        .map(|p| T1Parameter {
            name: p.name.clone(),
            ty: "int".to_string(),
            values: p.values.clone(),
        })
        .collect();
    let constraints = space
        .restrictions()
        .iter()
        .map(|r| r.source.clone())
        .collect();
    T1Document {
        general: T1General {
            benchmark_name: spec.name().to_string(),
            schema_version: T1_SCHEMA_VERSION.to_string(),
        },
        configuration_space: T1ConfigurationSpace {
            tuning_parameters,
            constraints,
        },
        kernel_specification: T1KernelSpecification {
            language: language.to_string(),
            kernel_name: spec.name().to_string(),
        },
    }
}

/// Why a T1 document could not be turned into a [`ConfigSpace`].
#[derive(Debug, Clone, PartialEq)]
pub enum T1Error {
    /// A parameter declares an unsupported type.
    UnsupportedType {
        /// Parameter name.
        parameter: String,
        /// The declared type.
        ty: String,
    },
    /// A parameter has no values.
    EmptyValues(String),
    /// The space failed to build (duplicate names, bad constraint, …).
    Space(SpaceError),
}

impl std::fmt::Display for T1Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            T1Error::UnsupportedType { parameter, ty } => {
                write!(f, "parameter {parameter:?} has unsupported type {ty:?}")
            }
            T1Error::EmptyValues(p) => write!(f, "parameter {p:?} has no values"),
            T1Error::Space(e) => write!(f, "space construction failed: {e}"),
        }
    }
}

impl std::error::Error for T1Error {}

/// Build a [`ConfigSpace`] from a T1 document's configuration-space block.
pub fn space_from_t1(doc: &T1Document) -> Result<ConfigSpace, T1Error> {
    let mut b = ConfigSpace::builder();
    for p in &doc.configuration_space.tuning_parameters {
        if p.ty != "int" {
            return Err(T1Error::UnsupportedType {
                parameter: p.name.clone(),
                ty: p.ty.clone(),
            });
        }
        if p.values.is_empty() {
            return Err(T1Error::EmptyValues(p.name.clone()));
        }
        b = b.param(Param::new(p.name.clone(), p.values.clone()));
    }
    for c in &doc.configuration_space.constraints {
        b = b.restrict(c);
    }
    b.build().map_err(T1Error::Space)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{all_kernels, kernel_by_name};

    #[test]
    fn every_builtin_benchmark_round_trips_through_t1() {
        for spec in all_kernels() {
            let original = spec.build_space();
            let doc = to_t1(spec.as_ref(), "CUDA");
            let json = doc.to_json();
            let parsed = T1Document::from_json(&json).unwrap();
            assert_eq!(parsed, doc, "{}", spec.name());
            let rebuilt = space_from_t1(&parsed).unwrap();
            assert_eq!(
                rebuilt.cardinality(),
                original.cardinality(),
                "{}: cardinality changed through T1",
                spec.name()
            );
            assert_eq!(rebuilt.names(), original.names(), "{}", spec.name());
            assert_eq!(
                rebuilt.count_valid(),
                original.count_valid(),
                "{}: constrained count changed through T1",
                spec.name()
            );
        }
    }

    #[test]
    fn gemm_t1_contains_the_clblast_parameters() {
        let doc = to_t1(kernel_by_name("gemm").unwrap().as_ref(), "OpenCL");
        let names: Vec<&str> = doc
            .configuration_space
            .tuning_parameters
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(
            names,
            ["MWG", "NWG", "MDIMC", "NDIMC", "MDIMA", "NDIMB", "VWM", "VWN", "SA", "SB"]
        );
        assert!(!doc.configuration_space.constraints.is_empty());
        assert_eq!(doc.kernel_specification.language, "OpenCL");
    }

    #[test]
    fn custom_benchmark_from_json() {
        let json = r#"{
            "general": {"benchmark_name": "saxpy", "schema_version": "1.0.0"},
            "configuration_space": {
                "tuning_parameters": [
                    {"name": "block_size", "type": "int", "values": [64, 128, 256, 512]},
                    {"name": "work_per_thread", "type": "int", "values": [1, 2, 4]}
                ],
                "constraints": ["block_size * work_per_thread <= 1024"]
            },
            "kernel_specification": {"language": "CUDA", "kernel_name": "saxpy"}
        }"#;
        let doc = T1Document::from_json(json).unwrap();
        let space = space_from_t1(&doc).unwrap();
        assert_eq!(space.cardinality(), 12);
        assert_eq!(space.count_valid(), 11); // 512×4 = 2048 violates
        assert!(space.is_valid(&[512, 2]));
        assert!(!space.is_valid(&[512, 4]));
    }

    #[test]
    fn missing_constraints_block_defaults_to_empty() {
        let json = r#"{
            "general": {"benchmark_name": "x", "schema_version": "1.0.0"},
            "configuration_space": {
                "tuning_parameters": [
                    {"name": "a", "type": "int", "values": [1, 2]}
                ]
            },
            "kernel_specification": {"language": "CUDA", "kernel_name": "x"}
        }"#;
        let doc = T1Document::from_json(json).unwrap();
        assert!(doc.configuration_space.constraints.is_empty());
        assert_eq!(space_from_t1(&doc).unwrap().cardinality(), 2);
    }

    #[test]
    fn unsupported_type_is_rejected() {
        let doc = T1Document {
            general: T1General {
                benchmark_name: "x".into(),
                schema_version: T1_SCHEMA_VERSION.into(),
            },
            configuration_space: T1ConfigurationSpace {
                tuning_parameters: vec![T1Parameter {
                    name: "s".into(),
                    ty: "string".into(),
                    values: vec![],
                }],
                constraints: vec![],
            },
            kernel_specification: T1KernelSpecification {
                language: "CUDA".into(),
                kernel_name: "x".into(),
            },
        };
        assert!(matches!(
            space_from_t1(&doc),
            Err(T1Error::UnsupportedType { .. })
        ));
    }

    #[test]
    fn bad_constraint_surfaces_the_space_error() {
        let doc = T1Document {
            general: T1General {
                benchmark_name: "x".into(),
                schema_version: T1_SCHEMA_VERSION.into(),
            },
            configuration_space: T1ConfigurationSpace {
                tuning_parameters: vec![T1Parameter {
                    name: "a".into(),
                    ty: "int".into(),
                    values: vec![1, 2],
                }],
                constraints: vec!["a % == 0".into()],
            },
            kernel_specification: T1KernelSpecification {
                language: "CUDA".into(),
                kernel_name: "x".into(),
            },
        };
        assert!(matches!(space_from_t1(&doc), Err(T1Error::Space(_))));
    }
}
