//! Offline shim for `serde_derive`: generates impls of the `serde`
//! shim's `Serialize`/`Deserialize` traits, which stream a value to and
//! from JSON text (`serde::json::Writer` / `serde::json::Reader`), not
//! serde's visitor API. A derived struct writes its fields in
//! declaration order and reads a map in one pass: each key is matched to
//! its field (the first of duplicate keys wins), and unknown keys are
//! parsed and skipped.
//!
//! Supported shapes — exactly what this workspace derives on:
//!
//! - structs with named fields (no generics),
//! - enums whose variants are unit, single-field tuples or have named
//!   fields,
//! - `#[serde(default)]` / `#[serde(default = "path")]` on named fields
//!   (missing keys deserialize to `Default::default()` / `path()` instead
//!   of erroring — schema-evolution support for persisted artifacts).
//!
//! Anything else produces a `compile_error!` naming the limitation, so
//! unsupported usage fails loudly at the definition site.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The parsed shape of the deriving type.
enum Shape {
    /// Named-field struct: (name, fields).
    Struct(String, Vec<Field>),
    /// Enum: (name, variants), each variant unit or 1-tuple.
    Enum(String, Vec<Variant>),
}

/// One named struct field, its type and its missing-key behaviour.
struct Field {
    name: String,
    ty: String,
    /// `None` — required; `Some(None)` — `Default::default()`;
    /// `Some(Some(path))` — call `path()`.
    default: Option<Option<String>>,
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    /// Single-field tuple variant.
    Tuple1,
    /// Struct variant with named fields.
    Struct(Vec<Field>),
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

/// Skips attribute tokens (`#` followed by a bracket group), returning
/// the next non-attribute token.
fn next_skipping_attrs(iter: &mut impl Iterator<Item = TokenTree>) -> Option<TokenTree> {
    loop {
        match iter.next()? {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                // Consume the attribute body.
                iter.next();
            }
            tok => return Some(tok),
        }
    }
}

fn parse_input(input: TokenStream) -> Result<Shape, String> {
    let mut iter = input.into_iter();

    // Header: attributes / visibility / struct|enum keyword.
    let kind = loop {
        match next_skipping_attrs(&mut iter) {
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => continue,
            // `pub(crate)` etc: visibility restriction group.
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => continue,
            Some(TokenTree::Ident(id)) => {
                let kw = id.to_string();
                if kw == "struct" || kw == "enum" {
                    break kw;
                }
                return Err(format!("unexpected token `{kw}` before struct/enum"));
            }
            Some(tok) => return Err(format!("unexpected token `{tok}` before struct/enum")),
            None => return Err("ran out of tokens before struct/enum".into()),
        }
    };

    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, got {other:?}")),
    };

    let body = match iter.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            return Err(format!(
                "serde_derive shim: generic type `{name}` is not supported"
            ));
        }
        other => {
            return Err(format!(
                "serde_derive shim: `{name}` must be a braced struct or enum, got {other:?}"
            ));
        }
    };

    if kind == "struct" {
        Ok(Shape::Struct(name, parse_struct_fields(body)?))
    } else {
        Ok(Shape::Enum(name, parse_enum_variants(body)?))
    }
}

/// Parses a captured attribute body for `serde(default)` /
/// `serde(default = "path")`. Returns the field-default behaviour it
/// declares, if any.
fn parse_serde_default(attr: &TokenStream) -> Option<Option<String>> {
    let mut iter = attr.clone().into_iter();
    match iter.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return None,
    }
    let inner = match iter.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => g.stream(),
        _ => return None,
    };
    let mut inner = inner.into_iter();
    match inner.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "default" => {}
        _ => return None,
    }
    match inner.next() {
        None => Some(None),
        Some(TokenTree::Punct(p)) if p.as_char() == '=' => match inner.next() {
            Some(TokenTree::Literal(lit)) => {
                let path = lit.to_string();
                Some(Some(path.trim_matches('"').to_string()))
            }
            _ => None,
        },
        _ => None,
    }
}

fn parse_struct_fields(body: TokenStream) -> Result<Vec<Field>, String> {
    let mut fields = Vec::new();
    let mut iter = body.into_iter();
    loop {
        // Field name (after attrs / visibility), capturing any
        // `#[serde(default...)]` attribute on the way.
        let mut default = None;
        let field = loop {
            match iter.next() {
                None => return Ok(fields),
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    if let Some(TokenTree::Group(g)) = iter.next() {
                        if let Some(d) = parse_serde_default(&g.stream()) {
                            default = Some(d);
                        }
                    }
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => continue,
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => continue,
                Some(TokenTree::Ident(id)) => break id.to_string(),
                Some(tok) => return Err(format!("expected field name, got `{tok}`")),
            }
        };
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => return Err(format!("expected `:` after field `{field}`, got {other:?}")),
        }
        // The type runs up to a comma at angle-bracket depth 0.
        let mut angle_depth = 0i32;
        let mut ty = Vec::new();
        for tok in iter.by_ref() {
            match &tok {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => break,
                _ => {}
            }
            ty.push(tok);
        }
        fields.push(Field {
            name: field,
            ty: TokenStream::from_iter(ty).to_string(),
            default,
        });
    }
}

fn parse_enum_variants(body: TokenStream) -> Result<Vec<Variant>, String> {
    let mut variants = Vec::new();
    let mut iter = body.into_iter().peekable();
    loop {
        let name = match next_skipping_attrs(&mut iter) {
            None => return Ok(variants),
            Some(TokenTree::Ident(id)) => id.to_string(),
            Some(tok) => return Err(format!("expected variant name, got `{tok}`")),
        };
        let mut kind = VariantKind::Unit;
        match iter.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                // Count top-level commas: exactly one field supported.
                let mut angle_depth = 0i32;
                let mut commas = 0;
                let mut empty = true;
                for tok in g.stream() {
                    empty = false;
                    match tok {
                        TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                        TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                        TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                            commas += 1
                        }
                        _ => {}
                    }
                }
                if empty || commas > 0 {
                    return Err(format!(
                        "serde_derive shim: tuple variant `{name}` must have exactly one field"
                    ));
                }
                kind = VariantKind::Tuple1;
                iter.next();
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                kind = VariantKind::Struct(parse_struct_fields(g.stream())?);
                iter.next();
            }
            _ => {}
        }
        // Consume a trailing comma if present.
        if let Some(TokenTree::Punct(p)) = iter.peek() {
            if p.as_char() == ',' {
                iter.next();
            }
        }
        variants.push(Variant { name, kind });
    }
}

/// Writes `fields` (bound to locals of the same names, or `self.`-paths
/// via `access`) as one map.
fn write_fields(fields: &[Field], access: &str) -> String {
    let entries: String = fields
        .iter()
        .map(|f| {
            let n = &f.name;
            format!("__w.entry({n:?}, {access}{n});")
        })
        .collect();
    format!("__w.begin_map(); {entries} __w.end_map();")
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let shape = match parse_input(input) {
        Ok(s) => s,
        Err(e) => return compile_error(&e),
    };
    let (name, body) = match shape {
        Shape::Struct(name, fields) => {
            let body = write_fields(&fields, "&self.");
            (name, body)
        }
        Shape::Enum(name, variants) => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.kind {
                        VariantKind::Unit => format!("{name}::{vn} => __w.str({vn:?}),"),
                        VariantKind::Tuple1 => format!(
                            "{name}::{vn}(__v) => {{
                                 __w.begin_map(); __w.entry({vn:?}, __v); __w.end_map();
                             }}"
                        ),
                        VariantKind::Struct(fields) => {
                            let bindings = fields
                                .iter()
                                .map(|f| f.name.as_str())
                                .collect::<Vec<_>>()
                                .join(", ");
                            let inner = write_fields(fields, "");
                            format!(
                                "{name}::{vn} {{ {bindings} }} => {{
                                     __w.begin_map(); __w.key({vn:?}); {inner} __w.end_map();
                                 }}"
                            )
                        }
                    }
                })
                .collect();
            (name, format!("match self {{ {arms} }}"))
        }
    };
    format!(
        "impl serde::Serialize for {name} {{
             fn serialize(&self, __w: &mut serde::json::Writer) {{ {body} }}
         }}"
    )
    .parse()
    .unwrap()
}

/// An expression reading a map into `owner { fields }` in one pass: each
/// key fills its field's slot once, unknown and repeated keys are
/// skipped, and a missing field takes its `#[serde(default)]` or is an
/// error.
fn read_fields(owner: &str, fields: &[Field]) -> String {
    let slots: String = fields
        .iter()
        .map(|f| format!("let mut __f_{}: Option<{}> = None;", f.name, f.ty))
        .collect();
    let arms: String = fields
        .iter()
        .map(|f| {
            let n = &f.name;
            format!(
                "{n:?} if __f_{n}.is_none() => {{
                     __f_{n} = Some(serde::Deserialize::deserialize(__r)?);
                     Ok(())
                 }}"
            )
        })
        .collect();
    let inits: String = fields
        .iter()
        .map(|f| {
            let n = &f.name;
            let value = match &f.default {
                None => {
                    let msg = format!("missing field `{n}` in {owner}");
                    format!("__f_{n}.ok_or_else(|| serde::DeError::custom({msg:?}))?")
                }
                Some(None) => format!("__f_{n}.unwrap_or_default()"),
                Some(Some(path)) => format!("__f_{n}.unwrap_or_else({path})"),
            };
            format!("{n}: {value},")
        })
        .collect();
    format!(
        "{{
             {slots}
             __r.map(\"map for {owner}\", |__r, __k| match __k {{
                 {arms}
                 _ => __r.skip(),
             }})?;
             Ok({owner} {{ {inits} }})
         }}"
    )
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let shape = match parse_input(input) {
        Ok(s) => s,
        Err(e) => return compile_error(&e),
    };
    let (name, body) = match shape {
        Shape::Struct(name, fields) => {
            let body = read_fields(&name, &fields);
            (name, body)
        }
        Shape::Enum(name, variants) => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.kind {
                        VariantKind::Unit => format!("({vn:?}, true) => Ok({name}::{vn}),"),
                        VariantKind::Tuple1 => format!(
                            "({vn:?}, false) => Ok({name}::{vn}(serde::Deserialize::deserialize(__r)?)),"
                        ),
                        VariantKind::Struct(fields) => {
                            let body = read_fields(&format!("{name}::{vn}"), fields);
                            format!("({vn:?}, false) => {body}")
                        }
                    }
                })
                .collect();
            let body = format!(
                "__r.variant({name:?}, |__r, __tag, __unit| match (__tag, __unit) {{
                     {arms}
                     (other, _) => Err(serde::DeError::custom(
                         format!(\"unknown {name} variant {{other:?}}\"))),
                 }})"
            );
            (name, body)
        }
    };
    format!(
        "impl serde::Deserialize for {name} {{
             fn deserialize(__r: &mut serde::json::Reader<'_>)
                 -> Result<Self, serde::DeError> {{ {body} }}
         }}"
    )
    .parse()
    .unwrap()
}
