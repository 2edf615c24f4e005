//! Derive macros for the vendored serde stand-in.
//!
//! Implemented directly on `proc_macro::TokenTree` (no syn/quote — the
//! build is offline). Supports the shapes this workspace uses: unit /
//! named / tuple structs, enums with unit / tuple / struct variants,
//! simple unbounded type parameters, and two field attributes:
//! `#[serde(skip)]` (skipped on write, defaulted on read) and
//! `#[serde(default)]` (written normally, defaulted when absent on
//! read — the forward-compatibility attribute for fields added after
//! data was serialized).

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug, Clone)]
struct Field {
    name: Option<String>,
    attrs: FieldAttrs,
}

#[derive(Debug, Clone, Copy, Default)]
struct FieldAttrs {
    skip: bool,
    /// `#[serde(default)]`: absent-on-read falls back to `Default`.
    default: bool,
}

#[derive(Debug)]
enum Shape {
    Unit,
    Named(Vec<Field>),
    Tuple(Vec<Field>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    shape: Shape,
}

#[derive(Debug)]
enum Kind {
    Struct(Shape),
    Enum(Vec<Variant>),
}

#[derive(Debug)]
struct Item {
    name: String,
    /// Type parameter names, in order (lifetimes unsupported).
    generics: Vec<String>,
    kind: Kind,
}

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ------------------------------------------------------------------ parse

fn is_punct(t: &TokenTree, c: char) -> bool {
    matches!(t, TokenTree::Punct(p) if p.as_char() == c)
}

fn ident_text(t: &TokenTree) -> Option<String> {
    match t {
        TokenTree::Ident(i) => Some(i.to_string()),
        _ => None,
    }
}

/// Consumes leading attributes; returns the recognised `#[serde(...)]`
/// field flags (`skip`, `default`).
fn eat_attrs(tokens: &[TokenTree], i: &mut usize) -> FieldAttrs {
    let mut attrs = FieldAttrs::default();
    while *i < tokens.len() && is_punct(&tokens[*i], '#') {
        *i += 1;
        if let TokenTree::Group(g) = &tokens[*i] {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            if inner.first().and_then(ident_text).as_deref() == Some("serde") {
                if let Some(TokenTree::Group(args)) = inner.get(1) {
                    for t in args.stream() {
                        match ident_text(&t).as_deref() {
                            Some("skip") => attrs.skip = true,
                            Some("default") => attrs.default = true,
                            _ => {}
                        }
                    }
                }
            }
            *i += 1;
        } else {
            panic!("serde_derive: malformed attribute");
        }
    }
    attrs
}

fn eat_visibility(tokens: &[TokenTree], i: &mut usize) {
    if *i < tokens.len() && ident_text(&tokens[*i]).as_deref() == Some("pub") {
        *i += 1;
        if let Some(TokenTree::Group(g)) = tokens.get(*i) {
            if g.delimiter() == Delimiter::Parenthesis {
                *i += 1;
            }
        }
    }
}

/// Splits a token sequence on top-level commas, treating `<…>` as
/// nesting (groups already nest via the token tree).
fn split_top_commas(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    let mut angle = 0i32;
    let mut prev_dash = false;
    for t in tokens {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle += 1,
                '>' if !prev_dash => angle -= 1,
                ',' if angle == 0 => {
                    out.push(std::mem::take(&mut cur));
                    prev_dash = false;
                    continue;
                }
                _ => {}
            }
            prev_dash = p.as_char() == '-';
        } else {
            prev_dash = false;
        }
        cur.push(t.clone());
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

fn parse_named_fields(group: &TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = group.clone().into_iter().collect();
    split_top_commas(&tokens)
        .into_iter()
        .map(|seg| {
            let mut i = 0;
            let attrs = eat_attrs(&seg, &mut i);
            eat_visibility(&seg, &mut i);
            let name = ident_text(&seg[i]).expect("field name");
            Field {
                name: Some(name),
                attrs,
            }
        })
        .collect()
}

fn parse_tuple_fields(group: &TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = group.clone().into_iter().collect();
    split_top_commas(&tokens)
        .into_iter()
        .map(|seg| {
            let mut i = 0;
            let attrs = eat_attrs(&seg, &mut i);
            eat_visibility(&seg, &mut i);
            Field { name: None, attrs }
        })
        .collect()
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    eat_attrs(&tokens, &mut i);
    eat_visibility(&tokens, &mut i);
    let kw = ident_text(&tokens[i]).unwrap_or_default();
    i += 1;
    let name = ident_text(&tokens[i]).expect("item name");
    i += 1;

    // generics
    let mut generics = Vec::new();
    if i < tokens.len() && is_punct(&tokens[i], '<') {
        let mut depth = 1;
        i += 1;
        let mut params: Vec<TokenTree> = Vec::new();
        while depth > 0 {
            if is_punct(&tokens[i], '<') {
                depth += 1;
            } else if is_punct(&tokens[i], '>') {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            params.push(tokens[i].clone());
            i += 1;
        }
        for seg in split_top_commas(&params) {
            match &seg[0] {
                TokenTree::Ident(id) => {
                    assert!(
                        seg.len() == 1,
                        "serde_derive: bounded generic parameters are not supported"
                    );
                    generics.push(id.to_string());
                }
                _ => panic!("serde_derive: only plain type parameters are supported"),
            }
        }
    }

    if i < tokens.len() && ident_text(&tokens[i]).as_deref() == Some("where") {
        panic!("serde_derive: where clauses are not supported");
    }

    let kind = match kw.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::Struct(Shape::Named(parse_named_fields(&g.stream())))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Kind::Struct(Shape::Tuple(parse_tuple_fields(&g.stream())))
            }
            Some(t) if is_punct(t, ';') => Kind::Struct(Shape::Unit),
            other => panic!("serde_derive: unexpected struct body {other:?}"),
        },
        "enum" => {
            let TokenTree::Group(g) = &tokens[i] else {
                panic!("serde_derive: expected enum body");
            };
            let body: Vec<TokenTree> = g.stream().into_iter().collect();
            let variants = split_top_commas(&body)
                .into_iter()
                .map(|seg| {
                    let mut j = 0;
                    eat_attrs(&seg, &mut j);
                    let vname = ident_text(&seg[j]).expect("variant name");
                    j += 1;
                    let shape = match seg.get(j) {
                        Some(TokenTree::Group(vg)) if vg.delimiter() == Delimiter::Brace => {
                            Shape::Named(parse_named_fields(&vg.stream()))
                        }
                        Some(TokenTree::Group(vg)) if vg.delimiter() == Delimiter::Parenthesis => {
                            Shape::Tuple(parse_tuple_fields(&vg.stream()))
                        }
                        None => Shape::Unit,
                        Some(t) if is_punct(t, '=') => {
                            panic!("serde_derive: explicit discriminants are not supported")
                        }
                        other => panic!("serde_derive: unexpected variant body {other:?}"),
                    };
                    Variant { name: vname, shape }
                })
                .collect();
            Kind::Enum(variants)
        }
        other => panic!("serde_derive: cannot derive for `{other}` items"),
    };

    Item {
        name,
        generics,
        kind,
    }
}

// ---------------------------------------------------------------- codegen

fn impl_header(item: &Item, trait_name: &str) -> (String, String) {
    if item.generics.is_empty() {
        (String::new(), item.name.clone())
    } else {
        let bounded: Vec<String> = item
            .generics
            .iter()
            .map(|g| format!("{g}: ::serde::{trait_name}"))
            .collect();
        let plain = item.generics.join(", ");
        (
            format!("<{}>", bounded.join(", ")),
            format!("{}<{}>", item.name, plain),
        )
    }
}

fn ser_named(fields: &[Field], accessor: impl Fn(&str) -> String) -> String {
    let mut s = String::from("{ let mut __fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = ::std::vec::Vec::new();\n");
    for f in fields {
        let name = f.name.as_deref().expect("named field");
        if f.attrs.skip {
            continue;
        }
        s.push_str(&format!(
            "__fields.push((::std::string::String::from(\"{name}\"), ::serde::Serialize::to_value({})));\n",
            accessor(name)
        ));
    }
    s.push_str("::serde::Value::Obj(__fields) }");
    s
}

fn de_named(fields: &[Field], ctor: &str, ctx: &str) -> String {
    let mut s = format!("{ctor} {{\n");
    for f in fields {
        let name = f.name.as_deref().expect("named field");
        if f.attrs.skip {
            s.push_str(&format!("{name}: ::std::default::Default::default(),\n"));
        } else if f.attrs.default {
            s.push_str(&format!(
                "{name}: match __v.get(\"{name}\") {{ Some(__x) => ::serde::Deserialize::from_value(__x)?, None => ::std::default::Default::default() }},\n"
            ));
        } else {
            s.push_str(&format!(
                "{name}: match __v.get(\"{name}\") {{ Some(__x) => ::serde::Deserialize::from_value(__x)?, None => return Err(::serde::DeError::missing(\"{name}\", \"{ctx}\")) }},\n"
            ));
        }
    }
    s.push('}');
    s
}

fn gen_serialize(item: &Item) -> String {
    let (generics, ty) = impl_header(item, "Serialize");
    let body = match &item.kind {
        Kind::Struct(Shape::Unit) => "::serde::Value::Null".to_string(),
        Kind::Struct(Shape::Named(fields)) => ser_named(fields, |name| format!("&self.{name}")),
        Kind::Struct(Shape::Tuple(fields)) => match fields.len() {
            1 => "::serde::Serialize::to_value(&self.0)".to_string(),
            n => {
                let items: Vec<String> = (0..n)
                    .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                    .collect();
                format!("::serde::Value::Arr(vec![{}])", items.join(", "))
            }
        },
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                let iname = &item.name;
                match &v.shape {
                    Shape::Unit => arms.push_str(&format!(
                        "{iname}::{vname} => ::serde::Value::Str(::std::string::String::from(\"{vname}\")),\n"
                    )),
                    Shape::Tuple(fields) => {
                        let binds: Vec<String> =
                            (0..fields.len()).map(|i| format!("__f{i}")).collect();
                        let inner = if fields.len() == 1 {
                            "::serde::Serialize::to_value(__f0)".to_string()
                        } else {
                            let items: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_value({b})"))
                                .collect();
                            format!("::serde::Value::Arr(vec![{}])", items.join(", "))
                        };
                        arms.push_str(&format!(
                            "{iname}::{vname}({}) => ::serde::Value::Obj(vec![(::std::string::String::from(\"{vname}\"), {inner})]),\n",
                            binds.join(", ")
                        ));
                    }
                    Shape::Named(fields) => {
                        let binds: Vec<String> = fields
                            .iter()
                            .map(|f| f.name.clone().expect("named"))
                            .collect();
                        let inner = ser_named(fields, |name| name.to_string());
                        arms.push_str(&format!(
                            "{iname}::{vname} {{ {} }} => ::serde::Value::Obj(vec![(::std::string::String::from(\"{vname}\"), {inner})]),\n",
                            binds.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    let write = gen_write_json(item);
    format!(
        "impl{generics} ::serde::Serialize for {ty} {{\n fn to_value(&self) -> ::serde::Value {{\n {body}\n }}\n fn write_json(&self, __out: &mut ::std::string::String) {{\n {write}\n }}\n }}"
    )
}

/// The body of a generated `write_json`: the JSON text between fields
/// (braces, keys, commas, variant tags) is known here, so it is emitted
/// as string literals, adjacent ones merged into one `push_str`, around
/// one `Serialize::write_json` call per field. Keys and variant names
/// are identifiers, which need no JSON escape.
#[derive(Default)]
struct JsonCode {
    code: String,
    literal: String,
}

impl JsonCode {
    fn text(&mut self, json: &str) {
        self.literal.push_str(json);
    }

    fn value(&mut self, expr: &str) {
        self.flush();
        self.code
            .push_str(&format!("::serde::Serialize::write_json({expr}, __out);\n"));
    }

    fn flush(&mut self) {
        if !self.literal.is_empty() {
            self.code
                .push_str(&format!("__out.push_str({:?});\n", self.literal));
            self.literal.clear();
        }
    }

    /// `{"a":…,"b":…}` over the fields not marked `#[serde(skip)]`.
    fn named(&mut self, fields: &[Field], accessor: impl Fn(&str) -> String) {
        let mut sep = "{";
        for f in fields.iter().filter(|f| !f.attrs.skip) {
            let name = f.name.as_deref().expect("named field");
            self.text(&format!("{sep}\"{name}\":"));
            self.value(&accessor(name));
            sep = ",";
        }
        self.text(if sep == "{" { "{}" } else { "}" });
    }

    /// One element transparently, otherwise `[…]` (skip is not honoured
    /// on tuple fields, as in `to_value`).
    fn tuple(&mut self, exprs: &[String]) {
        if let [only] = exprs {
            return self.value(only);
        }
        self.text("[");
        for (i, expr) in exprs.iter().enumerate() {
            if i > 0 {
                self.text(",");
            }
            self.value(expr);
        }
        self.text("]");
    }

    fn finish(mut self) -> String {
        self.flush();
        self.code
    }
}

fn gen_write_json(item: &Item) -> String {
    let mut w = JsonCode::default();
    match &item.kind {
        Kind::Struct(Shape::Unit) => w.text("null"),
        Kind::Struct(Shape::Named(fields)) => w.named(fields, |name| format!("&self.{name}")),
        Kind::Struct(Shape::Tuple(fields)) => {
            let exprs: Vec<String> = (0..fields.len()).map(|i| format!("&self.{i}")).collect();
            w.tuple(&exprs);
        }
        Kind::Enum(variants) => {
            let iname = &item.name;
            w.code.push_str("match self {\n");
            for v in variants {
                let vname = &v.name;
                let mut arm = JsonCode::default();
                let pattern = match &v.shape {
                    Shape::Unit => {
                        arm.text(&format!("\"{vname}\""));
                        format!("{iname}::{vname}")
                    }
                    Shape::Tuple(fields) => {
                        let binds: Vec<String> =
                            (0..fields.len()).map(|i| format!("__f{i}")).collect();
                        arm.text(&format!("{{\"{vname}\":"));
                        arm.tuple(&binds);
                        arm.text("}");
                        format!("{iname}::{vname}({})", binds.join(", "))
                    }
                    Shape::Named(fields) => {
                        let mut binds: Vec<&str> = fields
                            .iter()
                            .filter(|f| !f.attrs.skip)
                            .map(|f| f.name.as_deref().expect("named field"))
                            .collect();
                        binds.push("..");
                        arm.text(&format!("{{\"{vname}\":"));
                        arm.named(fields, str::to_string);
                        arm.text("}");
                        format!("{iname}::{vname} {{ {} }}", binds.join(", "))
                    }
                };
                w.code
                    .push_str(&format!("{pattern} => {{\n{}}}\n", arm.finish()));
            }
            w.code.push('}');
        }
    }
    w.finish()
}

fn gen_deserialize(item: &Item) -> String {
    let (generics, ty) = impl_header(item, "Deserialize");
    let iname = &item.name;
    let body = match &item.kind {
        Kind::Struct(Shape::Unit) => format!("let _ = __v; Ok({iname})"),
        Kind::Struct(Shape::Named(fields)) => {
            let build = de_named(fields, iname, iname);
            format!(
                "if __v.as_obj().is_none() {{ return Err(::serde::DeError::expected(\"object\", __v, \"{iname}\")); }}\nOk({build})"
            )
        }
        Kind::Struct(Shape::Tuple(fields)) => match fields.len() {
            1 => format!("Ok({iname}(::serde::Deserialize::from_value(__v)?))"),
            n => {
                let items: Vec<String> = (0..n)
                    .map(|i| format!("::serde::Deserialize::from_value(&__items[{i}])?"))
                    .collect();
                format!(
                    "let __items = __v.as_arr().ok_or_else(|| ::serde::DeError::expected(\"array\", __v, \"{iname}\"))?;\nif __items.len() != {n} {{ return Err(::serde::DeError(format!(\"expected {n} elements for {iname}, found {{}}\", __items.len()))); }}\nOk({iname}({}))",
                    items.join(", ")
                )
            }
        },
        Kind::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.shape {
                    Shape::Unit => {
                        unit_arms.push_str(&format!("\"{vname}\" => Ok({iname}::{vname}),\n"))
                    }
                    Shape::Tuple(fields) => {
                        let build = if fields.len() == 1 {
                            format!(
                                "Ok({iname}::{vname}(::serde::Deserialize::from_value(__inner)?))"
                            )
                        } else {
                            let n = fields.len();
                            let items: Vec<String> = (0..n)
                                .map(|i| {
                                    format!("::serde::Deserialize::from_value(&__items[{i}])?")
                                })
                                .collect();
                            format!(
                                "{{ let __items = __inner.as_arr().ok_or_else(|| ::serde::DeError::expected(\"array\", __inner, \"{iname}::{vname}\"))?;\nif __items.len() != {n} {{ return Err(::serde::DeError(format!(\"expected {n} elements for {iname}::{vname}, found {{}}\", __items.len()))); }}\nOk({iname}::{vname}({})) }}",
                                items.join(", ")
                            )
                        };
                        data_arms.push_str(&format!("\"{vname}\" => {build},\n"));
                    }
                    Shape::Named(fields) => {
                        let build = de_named(
                            fields,
                            &format!("{iname}::{vname}"),
                            &format!("{iname}::{vname}"),
                        );
                        data_arms.push_str(&format!(
                            "\"{vname}\" => {{ let __v = __inner; if __v.as_obj().is_none() {{ return Err(::serde::DeError::expected(\"object\", __v, \"{iname}::{vname}\")); }} Ok({build}) }},\n"
                        ));
                    }
                }
            }
            format!(
                "match __v {{\n\
                 ::serde::Value::Str(__s) => match __s.as_str() {{\n{unit_arms}\
                 __other => Err(::serde::DeError(format!(\"unknown variant `{{}}` of {iname}\", __other))),\n}},\n\
                 ::serde::Value::Obj(__fields) if __fields.len() == 1 => {{\n\
                 let (__tag, __inner) = &__fields[0];\n\
                 match __tag.as_str() {{\n{data_arms}\
                 __other => Err(::serde::DeError(format!(\"unknown variant `{{}}` of {iname}\", __other))),\n}}\n}},\n\
                 __other => Err(::serde::DeError::expected(\"string or single-key object\", __other, \"{iname}\")),\n}}"
            )
        }
    };
    format!(
        "impl{generics} ::serde::Deserialize for {ty} {{\n fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n {body}\n }}\n }}"
    )
}
