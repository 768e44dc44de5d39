//! Offline stand-in for serde's derive macros, targeting the streaming
//! `Serialize` / `Deserialize` traits of the sibling `serde` stand-in: a
//! derived `serialize` writes the value's JSON members straight into the
//! `serde::Writer`, and a derived `deserialize` walks the object keys the
//! `serde::Reader` yields, matching each against the field names in place
//! and skipping (or, under `deny_unknown_fields`, rejecting) the rest.
//!
//! Supported shapes (everything this workspace derives):
//!
//! * structs with named fields;
//! * enums whose variants are unit, newtype (one unnamed field) or struct
//!   variants;
//! * attributes `#[serde(rename = "...")]`, `#[serde(rename_all =
//!   "snake_case")]`, `#[serde(default)]`,
//!   `#[serde(skip_serializing_if = "path")]` and the container attribute
//!   `#[serde(deny_unknown_fields)]` (structs: deserialization errors on
//!   any object key that maps to no field).
//!
//! Implemented directly on `proc_macro` token streams (no `syn`/`quote`
//! available offline); code is generated as source text and re-parsed.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One parsed `#[serde(...)]` setting.
#[derive(Debug, Default, Clone)]
struct SerdeAttrs {
    rename: Option<String>,
    rename_all: Option<String>,
    default: bool,
    skip_serializing_if: Option<String>,
    deny_unknown_fields: bool,
}

impl SerdeAttrs {
    fn merge(&mut self, other: SerdeAttrs) {
        if other.rename.is_some() {
            self.rename = other.rename;
        }
        if other.rename_all.is_some() {
            self.rename_all = other.rename_all;
        }
        self.default |= other.default;
        if other.skip_serializing_if.is_some() {
            self.skip_serializing_if = other.skip_serializing_if;
        }
        self.deny_unknown_fields |= other.deny_unknown_fields;
    }
}

struct Field {
    name: String,
    /// The field's type, as source text.
    ty: String,
    attrs: SerdeAttrs,
}

enum VariantKind {
    Unit,
    Newtype,
    Struct(Vec<Field>),
}

struct Variant {
    name: String,
    kind: VariantKind,
    attrs: SerdeAttrs,
}

enum Item {
    Struct {
        name: String,
        attrs: SerdeAttrs,
        fields: Vec<Field>,
    },
    Enum {
        name: String,
        attrs: SerdeAttrs,
        variants: Vec<Variant>,
    },
}

/// Parse the contents of one `#[serde(...)]` group.
fn parse_serde_args(group: &proc_macro::Group) -> SerdeAttrs {
    let mut out = SerdeAttrs::default();
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut i = 0;
    while i < tokens.len() {
        let TokenTree::Ident(key) = &tokens[i] else {
            i += 1;
            continue;
        };
        let key = key.to_string();
        let mut value = None;
        if let Some(TokenTree::Punct(p)) = tokens.get(i + 1) {
            if p.as_char() == '=' {
                if let Some(TokenTree::Literal(lit)) = tokens.get(i + 2) {
                    let raw = lit.to_string();
                    value = Some(raw.trim_matches('"').to_string());
                    i += 2;
                }
            }
        }
        match key.as_str() {
            "rename" => out.rename = value,
            "rename_all" => out.rename_all = value,
            "default" => out.default = true,
            "skip_serializing_if" => out.skip_serializing_if = value,
            "deny_unknown_fields" => out.deny_unknown_fields = true,
            other => panic!("serde-compat derive: unsupported serde attribute {other:?}"),
        }
        i += 1;
        // Skip a separating comma, if any.
        if let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() == ',' {
                i += 1;
            }
        }
    }
    out
}

/// Consume leading attributes at `tokens[*i..]`, folding `#[serde(...)]`
/// settings and skipping everything else (doc comments etc.).
fn take_attrs(tokens: &[TokenTree], i: &mut usize) -> SerdeAttrs {
    let mut out = SerdeAttrs::default();
    while let Some(TokenTree::Punct(p)) = tokens.get(*i) {
        if p.as_char() != '#' {
            break;
        }
        let Some(TokenTree::Group(g)) = tokens.get(*i + 1) else {
            break;
        };
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        if let (Some(TokenTree::Ident(name)), Some(TokenTree::Group(args))) =
            (inner.first(), inner.get(1))
        {
            if name.to_string() == "serde" {
                out.merge(parse_serde_args(args));
            }
        }
        *i += 2;
    }
    out
}

/// Skip a visibility qualifier (`pub`, `pub(crate)`, ...) if present.
fn skip_vis(tokens: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = tokens.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

fn parse_fields(body: &proc_macro::Group) -> Vec<Field> {
    let tokens: Vec<TokenTree> = body.stream().into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs = take_attrs(&tokens, &mut i);
        skip_vis(&tokens, &mut i);
        let Some(TokenTree::Ident(name)) = tokens.get(i) else {
            break;
        };
        let name = name.to_string();
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde-compat derive: expected ':' after field {name}, got {other:?}"),
        }
        // The type: everything up to a comma at angle-bracket depth 0.
        let start = i;
        let mut depth = 0i32;
        while let Some(tok) = tokens.get(i) {
            if let TokenTree::Punct(p) = tok {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => break,
                    _ => {}
                }
            }
            i += 1;
        }
        let ty = tokens[start..i]
            .iter()
            .cloned()
            .collect::<TokenStream>()
            .to_string();
        i += 1; // past the comma (or past the end)
        fields.push(Field { name, ty, attrs });
    }
    fields
}

fn parse_variants(body: &proc_macro::Group) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = body.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs = take_attrs(&tokens, &mut i);
        let Some(TokenTree::Ident(name)) = tokens.get(i) else {
            break;
        };
        let name = name.to_string();
        i += 1;
        let mut kind = VariantKind::Unit;
        if let Some(TokenTree::Group(g)) = tokens.get(i) {
            match g.delimiter() {
                Delimiter::Parenthesis => {
                    kind = VariantKind::Newtype;
                    i += 1;
                }
                Delimiter::Brace => {
                    kind = VariantKind::Struct(parse_fields(g));
                    i += 1;
                }
                _ => {}
            }
        }
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            None => {}
            other => {
                panic!("serde-compat derive: expected ',' after variant {name}, got {other:?}")
            }
        }
        variants.push(Variant { name, kind, attrs });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let container_attrs = take_attrs(&tokens, &mut i);
    skip_vis(&tokens, &mut i);
    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde-compat derive: expected struct/enum, got {other:?}"),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde-compat derive: expected item name, got {other:?}"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("serde-compat derive: generic types are unsupported ({name})");
        }
    }
    let body = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g,
        other => panic!("serde-compat derive: expected braced body for {name}, got {other:?}"),
    };
    match kind.as_str() {
        "struct" => Item::Struct {
            name,
            attrs: container_attrs,
            fields: parse_fields(body),
        },
        "enum" => Item::Enum {
            name,
            attrs: container_attrs,
            variants: parse_variants(body),
        },
        other => panic!("serde-compat derive: unsupported item kind {other:?}"),
    }
}

fn snake_case(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

fn variant_key(v: &Variant, container: &SerdeAttrs) -> String {
    if let Some(rename) = &v.attrs.rename {
        return rename.clone();
    }
    match container.rename_all.as_deref() {
        Some("snake_case") => snake_case(&v.name),
        Some(other) => panic!("serde-compat derive: unsupported rename_all {other:?}"),
        None => v.name.clone(),
    }
}

fn field_key(f: &Field) -> String {
    f.attrs.rename.clone().unwrap_or_else(|| f.name.clone())
}

/// Statements writing `fields` as members of the open object; `access`
/// gives the source of a reference to each field's value.
fn write_members(fields: &[Field], access: impl Fn(&Field) -> String) -> String {
    let mut src = String::new();
    for f in fields {
        let key = field_key(f);
        let value = access(f);
        let write = format!("__w.field(\"{key}\", {value});");
        match &f.attrs.skip_serializing_if {
            Some(pred) => src.push_str(&format!("if !{pred}({value}) {{ {write} }}\n")),
            None => src.push_str(&format!("{write}\n")),
        }
    }
    src
}

/// A block expression reading one object of `fields` from `__r` and
/// building it with `ctor` (`Name` or `Name::Variant`). Field names are
/// matched against each key in place; the first occurrence of a repeated
/// key wins; other keys are skipped, or rejected when `deny_unknown`.
fn read_object(ty_name: &str, ctor: &str, fields: &[Field], deny_unknown: bool) -> String {
    let mut src = String::from("{\n");
    for (i, f) in fields.iter().enumerate() {
        src.push_str(&format!(
            "let mut __f{i}: ::core::option::Option<{}> = ::core::option::Option::None;\n",
            f.ty
        ));
    }
    src.push_str(&format!(
        "__r.begin_object(\"{ty_name}\")?;\nwhile let ::core::option::Option::Some(__key) = __r.next_key()? {{\nmatch &*__key {{\n"
    ));
    for (i, f) in fields.iter().enumerate() {
        src.push_str(&format!(
            "\"{}\" if __f{i}.is_none() => __f{i} = ::core::option::Option::Some(::serde::Deserialize::deserialize(__r)?),\n",
            field_key(f)
        ));
    }
    if deny_unknown {
        if !fields.is_empty() {
            let known: Vec<String> = fields
                .iter()
                .map(|f| format!("\"{}\"", field_key(f)))
                .collect();
            src.push_str(&format!("{} => __r.skip_value()?,\n", known.join(" | ")));
        }
        src.push_str(&format!(
            "_ => return ::core::result::Result::Err(__r.unknown_field(&__key, \"{ty_name}\")),\n"
        ));
    } else {
        src.push_str("_ => __r.skip_value()?,\n");
    }
    src.push_str("}\n}\n");
    let inits: Vec<String> = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let fallback = if f.attrs.default {
                "::core::default::Default::default()".to_string()
            } else {
                format!(
                    "return ::core::result::Result::Err(__r.missing_field(\"{}\", \"{ty_name}\"))",
                    field_key(f)
                )
            };
            format!(
                "{}: match __f{i} {{ ::core::option::Option::Some(__v) => __v, ::core::option::Option::None => {fallback} }}",
                f.name
            )
        })
        .collect();
    src.push_str(&format!("{ctor} {{ {} }}\n}}", inits.join(", ")));
    src
}

/// Derive the streaming `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, body) = match parse_item(input) {
        Item::Struct { name, fields, .. } => {
            let members = write_members(&fields, |f| format!("&self.{}", f.name));
            let body = format!("__w.begin_object();\n{members}__w.end_object();");
            (name, body)
        }
        Item::Enum {
            name,
            attrs,
            variants,
        } => {
            let mut arms = String::new();
            for v in &variants {
                let key = variant_key(v, &attrs);
                let vname = &v.name;
                arms.push_str(&match &v.kind {
                    VariantKind::Unit => format!("{name}::{vname} => __w.str(\"{key}\"),\n"),
                    VariantKind::Newtype => format!(
                        "{name}::{vname}(__inner) => {{ __w.begin_object(); __w.field(\"{key}\", __inner); __w.end_object(); }}\n"
                    ),
                    VariantKind::Struct(fields) => {
                        let bindings: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let members = write_members(fields, |f| f.name.clone());
                        format!(
                            "{name}::{vname} {{ {} }} => {{ __w.begin_object(); __w.key(\"{key}\"); __w.begin_object();\n{members}__w.end_object(); __w.end_object(); }}\n",
                            bindings.join(", ")
                        )
                    }
                });
            }
            (name, format!("match self {{\n{arms}}}"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n    fn serialize(&self, __w: &mut ::serde::Writer<'_>) {{\n{body}\n    }}\n}}\n"
    )
    .parse()
    .expect("serde-compat derive generated invalid Serialize impl")
}

/// Derive the streaming `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, body) = match parse_item(input) {
        Item::Struct {
            name,
            attrs,
            fields,
        } => {
            let read = read_object(&name, &name, &fields, attrs.deny_unknown_fields);
            let body = format!("::core::result::Result::Ok({read})");
            (name, body)
        }
        Item::Enum {
            name,
            attrs,
            variants,
        } => {
            let unknown = format!(
                "::core::result::Result::Err(__r.expected(\"a known variant\", \"{name}\"))"
            );
            let mut units = String::new();
            let mut tagged = String::new();
            for v in &variants {
                let key = variant_key(v, &attrs);
                let vname = &v.name;
                match &v.kind {
                    VariantKind::Unit => units.push_str(&format!(
                        "\"{key}\" => ::core::result::Result::Ok({name}::{vname}),\n"
                    )),
                    VariantKind::Newtype => tagged.push_str(&format!(
                        "::core::option::Option::Some(\"{key}\") => {name}::{vname}(::serde::Deserialize::deserialize(__r)?),\n"
                    )),
                    VariantKind::Struct(fields) => tagged.push_str(&format!(
                        "::core::option::Option::Some(\"{key}\") => {},\n",
                        read_object(&name, &format!("{name}::{vname}"), fields, false)
                    )),
                }
            }
            let mut body = String::from("match __r.peek() {\n");
            if !units.is_empty() {
                body.push_str(&format!(
                    "::core::option::Option::Some(b'\"') => {{\nlet __tag = __r.string(\"{name}\")?;\nmatch &*__tag {{\n{units}_ => {unknown},\n}}\n}}\n"
                ));
            }
            if !tagged.is_empty() {
                body.push_str(&format!(
                    "::core::option::Option::Some(b'{{') => {{\n__r.begin_object(\"{name}\")?;\nlet __value = match __r.next_key()?.as_deref() {{\n{tagged}_ => return {unknown},\n}};\nmatch __r.next_key()? {{\n::core::option::Option::None => ::core::result::Result::Ok(__value),\n::core::option::Option::Some(_) => {unknown},\n}}\n}}\n"
                ));
            }
            body.push_str(&format!("_ => {unknown},\n}}"));
            (name, body)
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n    fn deserialize(__r: &mut ::serde::Reader<'_>) -> ::core::result::Result<Self, ::serde::DeError> {{\n{body}\n    }}\n}}\n"
    )
    .parse()
    .expect("serde-compat derive generated invalid Deserialize impl")
}
