//! Machine-diffable scenario reports: a [`Report`] collects ordered
//! key/value sections and renders them as JSON (hand-rolled — the harness
//! has no serde) and as a self-contained HTML page, both written under
//! `target/reports/`.
//!
//! # Conventions
//!
//! * Field order is insertion order, in both renderings, so two runs of
//!   the same binary produce byte-identical files — the property the
//!   `scenario-smoke` CI stage diffs on.
//! * Values are stored as **raw JSON fragments**: [`Report::num`],
//!   [`Report::int`] and [`Report::str`] cover the common scalars, and
//!   [`Report::raw`] splices pre-rendered JSON such as
//!   `Histogram::summary_json` output or a `[1,2,3]` array.
//! * Nothing wall-clock-derived belongs in a report; elapsed-time numbers
//!   go through [`crate::report_wall`] like every other experiment's.
//!
//! [`validate_json`] is a minimal recursive-descent checker used by the
//! writers (and the CI smoke stage) to guarantee the spliced fragments
//! still add up to well-formed JSON.

use std::io::Write as _;
use std::path::PathBuf;

/// One titled group of ordered `(key, raw JSON value)` fields.
struct Section {
    title: String,
    fields: Vec<(String, String)>,
}

/// An ordered, sectioned report rendered to JSON and HTML (module docs).
pub struct Report {
    name: String,
    title: String,
    sections: Vec<Section>,
}

impl Report {
    /// A new empty report. `name` becomes the file stem under
    /// `target/reports/`; `title` heads the HTML page.
    pub fn new(name: impl Into<String>, title: impl Into<String>) -> Self {
        Report {
            name: name.into(),
            title: title.into(),
            sections: Vec::new(),
        }
    }

    /// The file stem this report writes under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Opens a new section; subsequent field adders append to it.
    pub fn section(&mut self, title: impl Into<String>) -> &mut Self {
        self.sections.push(Section {
            title: title.into(),
            fields: Vec::new(),
        });
        self
    }

    fn push(&mut self, key: &str, raw: String) -> &mut Self {
        let sec = self
            .sections
            .last_mut()
            .expect("open a section before adding report fields");
        sec.fields.push((key.to_string(), raw));
        self
    }

    /// Adds a float field (finite values only; rendered with 4 decimals so
    /// reruns are byte-identical).
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        assert!(value.is_finite(), "JSON has no encoding for {value}");
        self.push(key, format!("{value:.4}"))
    }

    /// Adds an integer field.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.push(key, value.to_string())
    }

    /// Adds a string field (escaped).
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.push(key, format!("\"{}\"", json_escape(value)))
    }

    /// Splices a pre-rendered JSON fragment (e.g. a histogram summary or
    /// an array literal); validated when the report is rendered.
    pub fn raw(&mut self, key: &str, raw_json: impl Into<String>) -> &mut Self {
        self.push(key, raw_json.into())
    }

    /// The JSON rendering (validated; panics if a [`Report::raw`] fragment
    /// was malformed).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\"report\":\"");
        s.push_str(&json_escape(&self.name));
        s.push_str("\",\"title\":\"");
        s.push_str(&json_escape(&self.title));
        s.push_str("\",\"sections\":[");
        for (i, sec) in self.sections.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"section\":\"");
            s.push_str(&json_escape(&sec.title));
            s.push('"');
            for (k, v) in &sec.fields {
                s.push_str(",\"");
                s.push_str(&json_escape(k));
                s.push_str("\":");
                s.push_str(v);
            }
            s.push('}');
        }
        s.push_str("]}");
        if let Err(e) = validate_json(&s) {
            panic!("report {:?} rendered malformed JSON: {e}", self.name);
        }
        s
    }

    /// The self-contained HTML rendering (inline CSS, no external assets).
    pub fn to_html(&self) -> String {
        let mut h = String::new();
        h.push_str("<!doctype html>\n<html><head><meta charset=\"utf-8\">\n<title>");
        h.push_str(&html_escape(&self.title));
        h.push_str("</title>\n<style>\n");
        h.push_str(concat!(
            "body{font:14px/1.5 -apple-system,Segoe UI,sans-serif;margin:2rem auto;",
            "max-width:60rem;color:#222}\n",
            "h1{font-size:1.4rem;border-bottom:2px solid #444;padding-bottom:.3rem}\n",
            "h2{font-size:1.05rem;margin-top:1.6rem}\n",
            "table{border-collapse:collapse;width:100%}\n",
            "td,th{border:1px solid #ccc;padding:.25rem .6rem;text-align:left}\n",
            "th{background:#f0f0f0}\n",
            "td.v{font-family:ui-monospace,monospace;white-space:pre-wrap}\n",
            "p.meta{color:#777;font-size:.85rem}\n",
        ));
        h.push_str("</style></head>\n<body>\n<h1>");
        h.push_str(&html_escape(&self.title));
        h.push_str("</h1>\n<p class=\"meta\">report: ");
        h.push_str(&html_escape(&self.name));
        h.push_str(" &middot; deterministic simulated metrics only</p>\n");
        for sec in &self.sections {
            h.push_str("<h2>");
            h.push_str(&html_escape(&sec.title));
            h.push_str("</h2>\n<table>\n<tr><th>field</th><th>value</th></tr>\n");
            for (k, v) in &sec.fields {
                h.push_str("<tr><td>");
                h.push_str(&html_escape(k));
                h.push_str("</td><td class=\"v\">");
                h.push_str(&html_escape(v));
                h.push_str("</td></tr>\n");
            }
            h.push_str("</table>\n");
        }
        h.push_str("</body></html>\n");
        h
    }

    /// Writes `target/reports/<name>.json` and `.html`, returning the two
    /// paths. The JSON is validated before anything touches disk.
    pub fn write(&self) -> std::io::Result<(PathBuf, PathBuf)> {
        let json = self.to_json();
        let html = self.to_html();
        let dir = std::path::Path::new("target/reports");
        std::fs::create_dir_all(dir)?;
        let json_path = dir.join(format!("{}.json", self.name));
        let html_path = dir.join(format!("{}.html", self.name));
        std::fs::File::create(&json_path)?.write_all(json.as_bytes())?;
        std::fs::File::create(&html_path)?.write_all(html.as_bytes())?;
        Ok((json_path, html_path))
    }
}

/// Escapes a string for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Checks that `s` is one complete, well-formed JSON value (objects,
/// arrays, strings, numbers, booleans, null). Returns the byte offset and
/// a short description on the first violation. This is a validator, not a
/// parser — nothing is materialized, so arbitrarily large reports check in
/// one pass.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut p = Parser { b, at: 0 };
    p.ws();
    p.value()?;
    p.ws();
    if p.at != b.len() {
        return Err(format!("trailing bytes at offset {}", p.at));
    }
    Ok(())
}

struct Parser<'a> {
    b: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at offset {}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.at).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {lit}")))
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.eat(b'{')?;
        self.ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(());
        }
        loop {
            self.ws();
            self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            self.value()?;
            self.ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.eat(b'[')?;
        self.ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(());
        }
        loop {
            self.ws();
            self.value()?;
            self.ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.eat(b'"')?;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.at += 1
                        }
                        Some(b'u') => {
                            self.at += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.at += 1,
                                    _ => return Err(self.err("bad \\u escape")),
                                }
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control char in string")),
                Some(_) => self.at += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        let digits = |p: &mut Self| {
            let start = p.at;
            while matches!(p.peek(), Some(c) if c.is_ascii_digit()) {
                p.at += 1;
            }
            p.at > start
        };
        if !digits(self) {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            if !digits(self) {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            if !digits(self) {
                return Err(self.err("expected exponent digits"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_ordered_valid_json() {
        let mut r = Report::new("unit", "Unit \"quoted\" report");
        r.section("cell a")
            .str("protocol", "safe-guess")
            .int("ops", 1200)
            .num("tput_mops", 3.25)
            .raw("get", r#"{"count":0}"#)
            .raw("routed", "[3,1,2]");
        r.section("cell b").int("ops", 7);
        let json = r.to_json();
        validate_json(&json).expect("report JSON validates");
        // Insertion order is preserved — the byte-diff property.
        let a = json.find("\"protocol\"").unwrap();
        let b = json.find("\"ops\"").unwrap();
        let c = json.find("\"tput_mops\"").unwrap();
        assert!(a < b && b < c);
        assert_eq!(r.to_json(), json, "rendering is pure");
        let html = r.to_html();
        assert!(html.contains("&quot;quoted&quot;"));
        assert!(html.contains("<td class=\"v\">[3,1,2]</td>"));
    }

    #[test]
    #[should_panic(expected = "malformed JSON")]
    fn malformed_raw_fragment_is_rejected() {
        let mut r = Report::new("bad", "bad");
        r.section("s").raw("oops", "{not json");
        let _ = r.to_json();
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            r#"{"a":[1,2.5,-3e4,"x\n",true,false,null],"b":{"c":{}}}"#,
            "  42  ",
            r#""é""#,
        ] {
            validate_json(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        for bad in [
            "",
            "{",
            "[1,]",
            r#"{"a":}"#,
            "01e",
            "1.",
            "nul",
            "\"\u{1}\"",
            "{} {}",
            r#"{"a":1,}"#,
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
