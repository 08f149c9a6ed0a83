//! Offline stand-in for `serde_derive`.
//!
//! Generates `impl serde::Serialize` / `impl serde::Deserialize` for plain
//! (non-generic, attribute-free) structs and enums by hand-parsing the item's
//! token stream — no `syn`/`quote`, since the build environment has no
//! registry access. The generated impls convert through the stub serde's
//! `Value` tree using the externally-tagged enum representation, matching
//! upstream serde's default JSON shape.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde_derive: generated invalid Serialize impl")
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde_derive: generated invalid Deserialize impl")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Item {
    name: String,
    shape: Shape,
}

enum Shape {
    /// `struct S;`
    UnitStruct,
    /// `struct S(T, ...);` with the field count.
    TupleStruct(usize),
    /// `struct S { a: T, ... }` with field names.
    NamedStruct(Vec<String>),
    /// `enum E { ... }`.
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

fn parse_item(input: TokenStream) -> Item {
    let mut it = input.into_iter().peekable();
    // Skip outer attributes and visibility until `struct` / `enum`.
    let mut is_enum = false;
    loop {
        match it.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // Attribute: consume the following [...] group.
                it.next();
            }
            Some(TokenTree::Ident(id)) => {
                let s = id.to_string();
                if s == "struct" {
                    break;
                }
                if s == "enum" {
                    is_enum = true;
                    break;
                }
                // `pub`, `crate`, ... — keep scanning.
            }
            // `pub(crate)`'s parenthesized group.
            Some(TokenTree::Group(_)) => {}
            Some(_) => {}
            None => panic!("serde_derive: no struct or enum in derive input"),
        }
    }
    let name = match it.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive: expected type name, got {other:?}"),
    };
    if let Some(TokenTree::Punct(p)) = it.peek() {
        if p.as_char() == '<' {
            panic!("serde_derive stand-in does not support generic types ({name})");
        }
    }
    let shape = if is_enum {
        let body = match it.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g,
            other => panic!("serde_derive: expected enum body, got {other:?}"),
        };
        let variants = split_top_commas(body.stream())
            .into_iter()
            .map(|toks| parse_variant(&toks))
            .collect();
        Shape::Enum(variants)
    } else {
        match it.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::NamedStruct(named_field_names(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct(split_top_commas(g.stream()).len())
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::UnitStruct,
            other => panic!("serde_derive: expected struct body, got {other:?}"),
        }
    };
    Item { name, shape }
}

/// Splits a token stream on commas that sit outside `<...>` generic
/// arguments. Bracketed/parenthesized/braced content arrives as atomic
/// `Group` tokens, so only angle brackets need manual depth tracking.
fn split_top_commas(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur: Vec<TokenTree> = Vec::new();
    let mut angle: i32 = 0;
    let mut prev_dash = false;
    for tt in stream {
        if let TokenTree::Punct(p) = &tt {
            let c = p.as_char();
            if c == '<' {
                angle += 1;
            } else if c == '>' && !prev_dash {
                // `->` return arrows would misbalance; `- >` tracked above.
                angle -= 1;
            } else if c == ',' && angle == 0 {
                out.push(std::mem::take(&mut cur));
                prev_dash = false;
                continue;
            }
            prev_dash = c == '-';
        } else {
            prev_dash = false;
        }
        cur.push(tt);
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Extracts field names from the body of a braced struct/variant: for each
/// comma-separated field, the identifier immediately before the first `:`.
fn named_field_names(stream: TokenStream) -> Vec<String> {
    split_top_commas(stream)
        .into_iter()
        .map(|toks| {
            let mut last_ident: Option<String> = None;
            let mut i = 0;
            while i < toks.len() {
                match &toks[i] {
                    TokenTree::Punct(p) if p.as_char() == '#' => {
                        // Skip the attribute group that follows.
                        i += 2;
                        continue;
                    }
                    TokenTree::Punct(p) if p.as_char() == ':' => {
                        return last_ident.expect("serde_derive: field with no name before ':'");
                    }
                    TokenTree::Ident(id) => last_ident = Some(id.to_string()),
                    _ => {}
                }
                i += 1;
            }
            panic!("serde_derive: malformed named field: {toks:?}")
        })
        .collect()
}

fn parse_variant(toks: &[TokenTree]) -> Variant {
    let mut i = 0;
    // Skip attributes.
    while i < toks.len() {
        if let TokenTree::Punct(p) = &toks[i] {
            if p.as_char() == '#' {
                i += 2;
                continue;
            }
        }
        break;
    }
    let name = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected variant name, got {other:?}"),
    };
    let kind = match toks.get(i + 1) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            VariantKind::Tuple(split_top_commas(g.stream()).len())
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            VariantKind::Named(named_field_names(g.stream()))
        }
        _ => VariantKind::Unit,
    };
    Variant { name, kind }
}

// ---------------------------------------------------------------------------
// Codegen
// ---------------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::UnitStruct => "::serde::Value::Null".to_string(),
        Shape::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Shape::TupleStruct(n) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", elems.join(", "))
        }
        Shape::NamedStruct(fields) => {
            let mut s = String::from("let mut __m = ::serde::Map::new();\n");
            for f in fields {
                s.push_str(&format!(
                    "__m.insert(String::from(\"{f}\"), ::serde::Serialize::to_value(&self.{f}));\n"
                ));
            }
            s.push_str("::serde::Value::Object(__m)");
            s
        }
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.kind {
                    VariantKind::Unit => {
                        arms.push_str(&format!(
                            "{name}::{vname} => ::serde::Value::String(String::from(\"{vname}\")),\n"
                        ));
                    }
                    VariantKind::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let inner = if *n == 1 {
                            "::serde::Serialize::to_value(__f0)".to_string()
                        } else {
                            let elems: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_value({b})"))
                                .collect();
                            format!("::serde::Value::Array(vec![{}])", elems.join(", "))
                        };
                        arms.push_str(&format!(
                            "{name}::{vname}({}) => {{\n\
                             let mut __m = ::serde::Map::new();\n\
                             __m.insert(String::from(\"{vname}\"), {inner});\n\
                             ::serde::Value::Object(__m)\n\
                             }}\n",
                            binds.join(", ")
                        ));
                    }
                    VariantKind::Named(fields) => {
                        let mut inner = String::from("let mut __fm = ::serde::Map::new();\n");
                        for f in fields {
                            inner.push_str(&format!(
                                "__fm.insert(String::from(\"{f}\"), ::serde::Serialize::to_value({f}));\n"
                            ));
                        }
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {} }} => {{\n\
                             {inner}\
                             let mut __m = ::serde::Map::new();\n\
                             __m.insert(String::from(\"{vname}\"), ::serde::Value::Object(__fm));\n\
                             ::serde::Value::Object(__m)\n\
                             }}\n",
                            fields.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{\n\
         {body}\n\
         }}\n\
         }}\n"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::UnitStruct => format!("{{ let _ = __v; Ok({name}) }}"),
        Shape::TupleStruct(1) => {
            format!("Ok({name}(::serde::Deserialize::from_value(__v)?))")
        }
        Shape::TupleStruct(n) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&__items[{i}])?"))
                .collect();
            format!(
                "match __v {{\n\
                 ::serde::Value::Array(__items) if __items.len() == {n} => \
                 Ok({name}({})),\n\
                 _ => Err(::serde::DeError::expected(\"array of length {n} for {name}\")),\n\
                 }}",
                elems.join(", ")
            )
        }
        Shape::NamedStruct(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "{f}: ::serde::Deserialize::from_value(\
                         __m.get(\"{f}\").unwrap_or(&::serde::Value::Null))\
                         .map_err(|e| e.in_field(\"{name}.{f}\"))?"
                    )
                })
                .collect();
            format!(
                "match __v {{\n\
                 ::serde::Value::Object(__m) => Ok({name} {{ {} }}),\n\
                 _ => Err(::serde::DeError::expected(\"object for {name}\")),\n\
                 }}",
                inits.join(", ")
            )
        }
        Shape::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.kind {
                    VariantKind::Unit => {
                        unit_arms.push_str(&format!("\"{vname}\" => Ok({name}::{vname}),\n"));
                        // Also accept the tagged-null form for robustness.
                        tagged_arms.push_str(&format!(
                            "\"{vname}\" => {{ let _ = __inner; Ok({name}::{vname}) }}\n"
                        ));
                    }
                    VariantKind::Tuple(1) => {
                        tagged_arms.push_str(&format!(
                            "\"{vname}\" => Ok({name}::{vname}(\
                             ::serde::Deserialize::from_value(__inner)\
                             .map_err(|e| e.in_field(\"{name}::{vname}\"))?)),\n"
                        ));
                    }
                    VariantKind::Tuple(n) => {
                        let elems: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Deserialize::from_value(&__items[{i}])?"))
                            .collect();
                        tagged_arms.push_str(&format!(
                            "\"{vname}\" => match __inner {{\n\
                             ::serde::Value::Array(__items) if __items.len() == {n} => \
                             Ok({name}::{vname}({})),\n\
                             _ => Err(::serde::DeError::expected(\"array for {name}::{vname}\")),\n\
                             }},\n",
                            elems.join(", ")
                        ));
                    }
                    VariantKind::Named(fields) => {
                        let inits: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "{f}: ::serde::Deserialize::from_value(\
                                     __fm.get(\"{f}\").unwrap_or(&::serde::Value::Null))\
                                     .map_err(|e| e.in_field(\"{name}::{vname}.{f}\"))?"
                                )
                            })
                            .collect();
                        tagged_arms.push_str(&format!(
                            "\"{vname}\" => match __inner {{\n\
                             ::serde::Value::Object(__fm) => Ok({name}::{vname} {{ {} }}),\n\
                             _ => Err(::serde::DeError::expected(\"object for {name}::{vname}\")),\n\
                             }},\n",
                            inits.join(", ")
                        ));
                    }
                }
            }
            format!(
                "match __v {{\n\
                 ::serde::Value::String(__s) => match __s.as_str() {{\n\
                 {unit_arms}\
                 _ => Err(::serde::DeError::expected(\"variant of {name}\")),\n\
                 }},\n\
                 ::serde::Value::Object(__m) if __m.len() == 1 => {{\n\
                 let (__k, __inner) = __m.iter().next().unwrap();\n\
                 match __k.as_str() {{\n\
                 {tagged_arms}\
                 _ => Err(::serde::DeError::expected(\"variant of {name}\")),\n\
                 }}\n\
                 }},\n\
                 _ => Err(::serde::DeError::expected(\"variant of {name}\")),\n\
                 }}"
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
         fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
         {body}\n\
         }}\n\
         }}\n"
    )
}
