//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` for the two shapes this workspace
//! uses — structs with named fields (→ JSON object, declaration order)
//! and enums with unit variants (→ JSON string of the variant name) —
//! by hand-parsing the token stream (no `syn`/`quote` available offline).

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize`.
///
/// # Panics
///
/// Panics at compile time on unsupported shapes (tuple structs, generic
/// types, enum variants with payloads).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;

    skip_attributes_and_visibility(&tokens, &mut pos);
    let kind = match &tokens[pos] {
        TokenTree::Ident(id) if id.to_string() == "struct" || id.to_string() == "enum" => {
            let k = id.to_string();
            pos += 1;
            k
        }
        other => panic!("derive(Serialize): expected `struct` or `enum`, found {other}"),
    };
    let name = match &tokens[pos] {
        TokenTree::Ident(id) => {
            pos += 1;
            id.to_string()
        }
        other => panic!("derive(Serialize): expected type name, found {other}"),
    };
    if matches!(&tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("derive(Serialize) shim does not support generic types ({name})");
    }

    let body = match &tokens.get(pos) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            if kind == "struct" {
                let fields = parse_named_fields(&inner, &name);
                let entries: Vec<String> = fields
                    .iter()
                    .map(|f| {
                        format!(
                            "(::std::string::String::from(\"{f}\"), \
                             ::serde::Serialize::to_value(&self.{f}))"
                        )
                    })
                    .collect();
                format!("::serde::Value::Obj(::std::vec![{}])", entries.join(", "))
            } else {
                let variants = parse_unit_variants(&inner, &name);
                let arms: Vec<String> = variants
                    .iter()
                    .map(|v| {
                        format!(
                            "{name}::{v} => ::serde::Value::Str(\
                             ::std::string::String::from(\"{v}\"))"
                        )
                    })
                    .collect();
                format!("match self {{ {} }}", arms.join(", "))
            }
        }
        _ => panic!("derive(Serialize) shim supports only braced {kind} bodies ({name})"),
    };

    format!(
        "impl ::serde::Serialize for {name} {{\n\
         \tfn to_value(&self) -> ::serde::Value {{\n\
         \t\t{body}\n\
         \t}}\n\
         }}"
    )
    .parse()
    .expect("derive(Serialize): generated impl failed to parse")
}

/// Advances past `#[...]` attributes (incl. doc comments) and `pub`
/// visibility (incl. `pub(...)`).
fn skip_attributes_and_visibility(tokens: &[TokenTree], pos: &mut usize) {
    loop {
        match tokens.get(*pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *pos += 1;
                if matches!(tokens.get(*pos), Some(TokenTree::Group(_))) {
                    *pos += 1;
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *pos += 1;
                if matches!(
                    tokens.get(*pos),
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                ) {
                    *pos += 1;
                }
            }
            _ => return,
        }
    }
}

/// Extracts field names from a named-struct body, in declaration order.
fn parse_named_fields(tokens: &[TokenTree], type_name: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        skip_attributes_and_visibility(tokens, &mut pos);
        if pos >= tokens.len() {
            break;
        }
        let field = match &tokens[pos] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("derive(Serialize) on {type_name}: expected field name, found {other}"),
        };
        pos += 1;
        match &tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => pos += 1,
            _ => panic!("derive(Serialize) on {type_name}: expected `:` after field {field}"),
        }
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut angle_depth = 0i32;
        while pos < tokens.len() {
            match &tokens[pos] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                    pos += 1;
                    break;
                }
                _ => {}
            }
            pos += 1;
        }
        fields.push(field);
    }
    fields
}

/// Extracts variant names from a unit-variant enum body.
fn parse_unit_variants(tokens: &[TokenTree], type_name: &str) -> Vec<String> {
    let mut variants = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        skip_attributes_and_visibility(tokens, &mut pos);
        if pos >= tokens.len() {
            break;
        }
        let variant = match &tokens[pos] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("derive(Serialize) on {type_name}: expected variant, found {other}"),
        };
        pos += 1;
        match &tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => pos += 1,
            None => {}
            Some(TokenTree::Group(_)) => panic!(
                "derive(Serialize) shim on {type_name}: variant {variant} carries data \
                 (only unit variants supported)"
            ),
            Some(other) => {
                panic!("derive(Serialize) on {type_name}: unexpected token {other}")
            }
        }
        variants.push(variant);
    }
    variants
}
