//! The workspace's one JSON codec: a streaming [`Writer`] and a bounded
//! [`parse`].
//!
//! Every JSON artifact the system produces — journal WAL lines, snapshot
//! rings, metric and trace exports, report cards, bench results — is
//! written through [`Writer`], which owns quoting, escaping and commas, so
//! no emitter can produce an unquoted string or a bare `NaN`. Every JSON
//! input — recovered journals and snapshot rings — is read by [`parse`],
//! which scans strings in linear time and keeps open containers on an
//! explicit stack, so deep input costs heap rather than thread stack and
//! nesting deeper than [`MAX_DEPTH`] is an error, not an abort.
//!
//! The writer streams straight into its buffer rather than building a
//! [`Json`] tree and printing it: the snapshot encoder runs on serving
//! worker threads after every apply, and the tree would double its cost.

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. The snapshot encoder
/// nests guest data two levels per guest array or record (FlashEd's v5
/// state: 8 levels; a guest linked list of `n` nodes: `2n + 4`), so this
/// admits guest lists of some 32,000 nodes. Neither [`parse`] nor dropping
/// a [`Json`] recurses, so the bound caps only the memory hostile input
/// can claim.
pub const MAX_DEPTH: usize = 1 << 16;

/// Integer types [`Writer::int`] emits verbatim.
pub trait Int: std::fmt::Display {}

macro_rules! ints {
    ($($t:ty),*) => { $(impl Int for $t {})* };
}
ints!(i64, i128, u8, u32, u64, u128, usize);

/// A streaming JSON writer: a `String` plus a needs-comma flag. Values
/// and keys insert the separating comma themselves; a key's value follows
/// it without one.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    comma: bool,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
    }

    fn open(&mut self, c: char) -> &mut Writer {
        self.sep();
        self.out.push(c);
        self.comma = false;
        self
    }

    fn close(&mut self, c: char) -> &mut Writer {
        self.out.push(c);
        self.comma = true;
        self
    }

    /// Opens an object.
    pub fn obj(&mut self) -> &mut Writer {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> &mut Writer {
        self.close('}')
    }

    /// Opens an array.
    pub fn arr(&mut self) -> &mut Writer {
        self.open('[')
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> &mut Writer {
        self.close(']')
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Writer {
        self.str(k);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes a string value, quoted and escaped.
    pub fn str(&mut self, s: &str) -> &mut Writer {
        self.sep();
        self.out.push('"');
        let mut start = 0;
        for (i, b) in s.bytes().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            self.out.push_str(&s[start..i]);
            start = i + 1;
            match b {
                b'"' => self.out.push_str("\\\""),
                b'\\' => self.out.push_str("\\\\"),
                b'\n' => self.out.push_str("\\n"),
                b'\r' => self.out.push_str("\\r"),
                b'\t' => self.out.push_str("\\t"),
                _ => {
                    let _ = write!(self.out, "\\u{b:04x}");
                }
            }
        }
        self.out.push_str(&s[start..]);
        self.out.push('"');
        self.comma = true;
        self
    }

    /// Writes an integer value.
    pub fn int(&mut self, n: impl Int) -> &mut Writer {
        self.raw(format_args!("{n}"))
    }

    /// Writes a float value; NaN and infinities become `null`.
    pub fn num(&mut self, v: f64) -> &mut Writer {
        if v.is_finite() {
            self.raw(format_args!("{v}"))
        } else {
            self.null()
        }
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, b: bool) -> &mut Writer {
        self.raw(format_args!("{b}"))
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Writer {
        self.raw(format_args!("null"))
    }

    fn raw(&mut self, text: std::fmt::Arguments) -> &mut Writer {
        self.sep();
        let _ = self.out.write_fmt(text);
        self.comma = true;
        self
    }
}

/// A parsed JSON value. Numbers without a fraction or exponent are
/// [`Json::Int`]; object fields keep their source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i128),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The first field named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The integer value, if this is one.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The fields in source order, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }
}

impl Drop for Json {
    /// Frees nested values from an explicit stack, so dropping a deep
    /// document does not recurse.
    fn drop(&mut self) {
        fn move_children(j: &mut Json, to: &mut Vec<Json>) {
            match j {
                Json::Arr(elems) => to.append(elems),
                Json::Obj(fields) => to.extend(fields.drain(..).map(|(_, v)| v)),
                _ => {}
            }
        }
        let mut stack = Vec::new();
        move_children(self, &mut stack);
        while let Some(mut j) = stack.pop() {
            move_children(&mut j, &mut stack);
        }
    }
}

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// Returns a description of the first syntax error, including nesting
/// deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing input"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        let b = self.text.as_bytes();
        while matches!(b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `b` if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.text.as_bytes().get(self.pos) == Some(&b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    /// Reads one value. Open containers wait on an explicit stack rather
    /// than the call stack, so depth costs heap, not thread stack.
    fn value(&mut self) -> Result<Json, String> {
        // Each open array or object, innermost last, with the key its
        // next value takes (objects only).
        let mut open: Vec<(Json, String)> = Vec::new();
        loop {
            self.skip_ws();
            let mut v = match self.text.as_bytes().get(self.pos) {
                Some(b'{' | b'[') if open.len() >= MAX_DEPTH => {
                    return Err(self.err("nesting too deep"))
                }
                Some(b'[') => {
                    self.pos += 1;
                    if !self.eat(b']') {
                        open.push((Json::Arr(Vec::new()), String::new()));
                        continue;
                    }
                    Json::Arr(Vec::new())
                }
                Some(b'{') => {
                    self.pos += 1;
                    if !self.eat(b'}') {
                        open.push((Json::Obj(Vec::new()), self.key()?));
                        continue;
                    }
                    Json::Obj(Vec::new())
                }
                _ => self.scalar()?,
            };
            // Hand the finished value to its container, closing every
            // container it completes.
            loop {
                let Some((top, key)) = open.last_mut() else {
                    return Ok(v);
                };
                let close = match top {
                    Json::Arr(elems) => {
                        elems.push(v);
                        b']'
                    }
                    Json::Obj(fields) => {
                        fields.push((std::mem::take(key), v));
                        b'}'
                    }
                    _ => unreachable!("only containers are opened"),
                };
                if !self.eat(close) {
                    self.expect(b',')?;
                    if close == b'}' {
                        *key = self.key()?;
                    }
                    break;
                }
                v = open.pop().expect("just inspected").0;
            }
        }
    }

    /// Reads an object key and its colon.
    fn key(&mut self) -> Result<String, String> {
        self.skip_ws();
        let key = self.string()?;
        self.expect(b':')?;
        Ok(key)
    }

    /// Reads a string, number, `true`, `false` or `null` at the cursor.
    fn scalar(&mut self) -> Result<Json, String> {
        let rest = &self.text.as_bytes()[self.pos..];
        match rest.first() {
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if rest.starts_with(word.as_bytes()) {
                        self.pos += word.len();
                        return Ok(v);
                    }
                }
                Err(self.err("expected a JSON value"))
            }
        }
    }

    /// Reads a number at the cursor: an [`Json::Int`] when the text is
    /// one, else whatever `f64`'s parser accepts from the number bytes.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let b = self.text.as_bytes();
        while matches!(
            b.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        match text.parse() {
            Ok(n) => Ok(Json::Int(n)),
            Err(_) => text
                .parse()
                .map(Json::Num)
                .map_err(|e| self.err(&format!("bad number `{text}`: {e}"))),
        }
    }

    /// Reads a quoted string at the cursor. Runs of plain characters are
    /// copied as slices, so the scan is linear in the input.
    fn string(&mut self) -> Result<String, String> {
        if self.text.as_bytes().get(self.pos) != Some(&b'"') {
            return Err(self.err("expected a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let Some(i) = rest.bytes().position(|b| b == b'"' || b == b'\\') else {
                return Err(self.err("unterminated string"));
            };
            out.push_str(&rest[..i]);
            self.pos += i + 1;
            if rest.as_bytes()[i] == b'"' {
                return Ok(out);
            }
            let esc = self.text.as_bytes().get(self.pos).copied();
            self.pos += 1;
            out.push(match esc {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let hex = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .and_then(char::from_u32);
                    self.pos += 4;
                    hex.ok_or_else(|| self.err("bad \\u escape"))?
                }
                _ => return Err(self.err("bad escape")),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_places_commas() {
        let mut w = Writer::new();
        w.obj().key("a").int(1u8).key("b\n").arr();
        w.obj().end_obj().bool(true).null();
        w.str("x\"y\\z\u{1}é").end_arr();
        w.key("c").obj().key("d").int(-2i64).end_obj();
        w.key("f").arr().num(1.5).num(f64::NAN);
        w.num(f64::INFINITY).end_arr();
        w.end_obj();
        assert_eq!(
            w.finish(),
            "{\"a\":1,\"b\\n\":[{},true,null,\"x\\\"y\\\\z\\u0001é\"],\
             \"c\":{\"d\":-2},\"f\":[1.5,null,null]}"
        );
    }

    #[test]
    fn values_parse_back() {
        let v = parse(
            " {\"seq\":3,\"from\":\"v1\",\"ok\":true,\"none\":null,\"neg\":-7,\
             \"esc\":\"a\\\"b\\nc\\u00e9\",\"f\":-1.5e2,\"a\":[1,[],{}]} ",
        )
        .unwrap();
        assert_eq!(v.get("seq").and_then(Json::as_int), Some(3));
        assert_eq!(v.get("from").and_then(Json::as_str), Some("v1"));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("none"), Some(&Json::Null));
        assert_eq!(v.get("neg").and_then(Json::as_int), Some(-7));
        assert_eq!(v.get("esc").and_then(Json::as_str), Some("a\"b\nc\u{e9}"));
        assert_eq!(v.get("f"), Some(&Json::Num(-150.0)));
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[_]>::len), Some(3));
        assert_eq!(v.get("missing"), None);
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn syntax_errors_and_the_depth_bound() {
        let deep = "[".repeat(MAX_DEPTH + 1);
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1} x",
            "[1,]",
            "[1 2]",
            "-",
            "1e",
            "\"ab",
            "\"\\x\"",
            "\"\\u12\"",
            "tru",
            "{1:2}",
            &deep,
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }
}
