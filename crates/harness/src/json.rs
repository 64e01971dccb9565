//! Minimal JSON reading/writing for the result cache, artifacts and
//! the wire.
//!
//! The workspace is std-only, so this module hand-rolls the small JSON
//! subset the harness needs: objects with ordered keys, arrays, strings,
//! booleans, null, unsigned integers, and floats. Writing is fully
//! deterministic (insertion order, fixed number formatting) so artifacts
//! can be compared byte-for-byte across runs and worker counts.
//!
//! There is one tokenizer ([`Reader`], a pull parser over `&str` that
//! lends keys and strings out of the input) and one formatter
//! ([`Writer`], which pushes compact or pretty text into a caller's
//! buffer). A codec written once against [`Sink`] and [`Source`] runs
//! straight to and from text through them ([`to_text`], [`from_text`]);
//! the cache key hashes the same `Sink` description. The [`Json`] tree
//! is what [`parse`] builds and document builders print, also through
//! them; no codec writes or reads one.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (all harness counters are `u64`).
    U64(u64),
    /// A float; written via Rust's shortest-roundtrip formatting.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64`: floats directly, integers widened.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serializes with two-space indentation, for human-readable artifacts.
    pub fn to_pretty(&self) -> String {
        to_text(true, |w| self.emit(w))
    }

    /// Replays the tree into `s`.
    fn emit(&self, s: &mut Writer<'_>) {
        match self {
            Json::Null => s.null(),
            Json::Bool(b) => s.bool(*b),
            Json::U64(v) => s.u64(*v),
            Json::F64(v) => s.f64(*v),
            Json::Str(v) => s.str(v),
            Json::Arr(items) => {
                s.begin_arr();
                for item in items {
                    item.emit(s);
                }
                s.end_arr();
            }
            Json::Obj(pairs) => {
                s.begin_obj();
                for (k, v) in pairs {
                    s.key(k);
                    v.emit(s);
                }
                s.end_obj();
            }
        }
    }
}

impl std::fmt::Display for Json {
    /// Compact (whitespace-free) serialization.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&to_text(false, |w| self.emit(w)))
    }
}

/// Where a codec pushes a value, one token at a time. A codec that
/// describes a type once against this trait serves [`Writer`] (text)
/// and the cache key's hash alike.
///
/// Callers emit well-formed sequences: inside an object every value
/// follows a [`key`](Sink::key), and every `begin_*` is closed.
pub trait Sink {
    /// Opens an object.
    fn begin_obj(&mut self);
    /// Closes the innermost object.
    fn end_obj(&mut self);
    /// Opens an array.
    fn begin_arr(&mut self);
    /// Closes the innermost array.
    fn end_arr(&mut self);
    /// The key of the next value.
    fn key(&mut self, key: &str);
    /// `null`.
    fn null(&mut self);
    /// A boolean.
    fn bool(&mut self, v: bool);
    /// An unsigned integer.
    fn u64(&mut self, v: u64);
    /// A float.
    fn f64(&mut self, v: f64);
    /// A string.
    fn str(&mut self, v: &str);
    /// Already-serialized text of exactly one value, spliced verbatim:
    /// how a stored outcome rides in a frame without a re-encode.
    fn raw(&mut self, text: &str);

    /// `key` then an unsigned integer.
    fn u64_field(&mut self, key: &str, v: u64) {
        self.key(key);
        self.u64(v);
    }

    /// `key` then a boolean.
    fn bool_field(&mut self, key: &str, v: bool) {
        self.key(key);
        self.bool(v);
    }

    /// `key` then a string.
    fn str_field(&mut self, key: &str, v: &str) {
        self.key(key);
        self.str(v);
    }

    /// `key` then an array, one `write` per item.
    fn arr_field<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut write: impl FnMut(&mut Self, T),
    ) where
        Self: Sized,
    {
        self.key(key);
        self.begin_arr();
        for item in items {
            write(self, item);
        }
        self.end_arr();
    }
}

/// The text driver's [`Sink`]: appends compact or two-space-indented
/// JSON to a caller's buffer.
pub struct Writer<'b> {
    out: &'b mut String,
    pretty: bool,
    depth: usize,
    // Whether the innermost open container is still empty. Closing a
    // container makes its parent non-empty, so no stack is needed.
    empty: bool,
    after_key: bool,
}

impl<'b> Writer<'b> {
    /// A writer appending to `out`.
    pub fn new(out: &'b mut String, pretty: bool) -> Writer<'b> {
        Writer {
            out,
            pretty,
            depth: 0,
            empty: true,
            after_key: false,
        }
    }

    fn newline(&mut self, depth: usize) {
        self.out.push('\n');
        for _ in 0..depth {
            self.out.push_str("  ");
        }
    }

    /// Whatever separates the next value or key from what precedes it.
    fn lead(&mut self) {
        if std::mem::take(&mut self.after_key) || self.depth == 0 {
            return;
        }
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        if self.pretty {
            self.newline(self.depth);
        }
    }

    fn open(&mut self, bracket: char) {
        self.lead();
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if self.pretty && !self.empty {
            self.newline(self.depth);
        }
        self.out.push(bracket);
        self.empty = false;
    }

    fn escaped(&mut self, s: &str) {
        self.out.push('"');
        let mut clean = 0;
        for (i, b) in s.bytes().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            self.out.push_str(&s[clean..i]);
            clean = i + 1;
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
        self.out.push_str(&s[clean..]);
        self.out.push('"');
    }
}

impl Sink for Writer<'_> {
    fn begin_obj(&mut self) {
        self.open('{');
    }

    fn end_obj(&mut self) {
        self.close('}');
    }

    fn begin_arr(&mut self) {
        self.open('[');
    }

    fn end_arr(&mut self) {
        self.close(']');
    }

    fn key(&mut self, key: &str) {
        self.lead();
        self.escaped(key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
    }

    fn null(&mut self) {
        self.lead();
        self.out.push_str("null");
    }

    fn bool(&mut self, v: bool) {
        self.lead();
        self.out.push_str(if v { "true" } else { "false" });
    }

    fn u64(&mut self, mut v: u64) {
        self.lead();
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out
            .push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    }

    fn f64(&mut self, v: f64) {
        self.lead();
        if !v.is_finite() {
            return self.out.push_str("null");
        }
        let start = self.out.len();
        let _ = write!(self.out, "{v}");
        // Ensure it parses back as a float, not an integer.
        if !self.out[start..].contains(['.', 'e', 'E']) {
            self.out.push_str(".0");
        }
    }

    fn str(&mut self, v: &str) {
        self.lead();
        self.escaped(v);
    }

    fn raw(&mut self, text: &str) {
        self.lead();
        // Pretty text keeps its interior newlines (JSON whitespace is
        // insignificant); only the trailing newline is dropped.
        self.out.push_str(text.trim_end());
    }
}

/// Text of whatever `emit` pushes: compact, or pretty with the trailing
/// newline artifacts and cache entries end in.
pub fn to_text(pretty: bool, emit: impl FnOnce(&mut Writer<'_>)) -> String {
    let mut out = String::new();
    emit(&mut Writer::new(&mut out, pretty));
    if pretty {
        out.push('\n');
    }
    out
}

/// A JSON parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where the error was detected.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// A decoding failure: the text was not JSON, or the JSON was not the
/// shape the codec expects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Malformed JSON.
    Syntax(ParseError),
    /// Well-formed JSON with a missing or mistyped field.
    Shape(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Syntax(e) => e.fmt(f),
            DecodeError::Shape(m) => write!(f, "result decode error: {m}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<ParseError> for DecodeError {
    fn from(e: ParseError) -> DecodeError {
        DecodeError::Syntax(e)
    }
}

/// Containers nested deeper than this are refused: input arrives from
/// sockets and cache files, and both the tree builder and value
/// skipping recurse once per level.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, nesting beyond
/// [`MAX_DEPTH`], or trailing garbage.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut r = Reader::new(input);
    let v = r.value(true)?;
    r.finish()?;
    Ok(v)
}

/// A pull parser over `&str`: the one tokenizer. Keys and strings are
/// lent from the input, and copied only when an escape forces it.
pub struct Reader<'a> {
    input: &'a str,
    pos: usize,
    depth: usize,
}

/// The text driver's place in an object ([`Source::Obj`]).
pub struct ObjCursor {
    // Byte offset just past the `{`.
    start: usize,
    // While every sought key has been the next one in the text, the
    // reader's own position is the cursor and keys behind it are known
    // not to repeat. Once a key is found out of order, every later
    // lookup scans from `start`, which is what makes the first of a
    // duplicated key win.
    in_order: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `input`.
    pub fn new(input: &'a str) -> Reader<'a> {
        let mut r = Reader {
            input,
            pos: 0,
            depth: 0,
        };
        r.skip_ws();
        r
    }

    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn shape(&self, message: &str) -> DecodeError {
        DecodeError::Shape(format!("{message} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), ParseError> {
        if self.input[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// Requires that nothing but whitespace follows.
    ///
    /// # Errors
    ///
    /// [`ParseError`] on trailing characters.
    pub fn finish(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos == self.input.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters"))
        }
    }

    /// Consumes `bracket` and returns the offset just past it, which
    /// identifies the container to [`Reader::next_in`].
    fn open(&mut self, bracket: u8) -> Result<usize, ParseError> {
        self.expect(bracket)?;
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        Ok(self.pos)
    }

    /// Moves to the next member of the container opened at `start`,
    /// from just past `start` or just past a member. `false` at the
    /// closing `bracket`, which is left unconsumed.
    fn next_in(&mut self, start: usize, bracket: u8) -> Result<bool, ParseError> {
        let first = self.pos == start;
        self.skip_ws();
        match self.peek() {
            Some(b) if b == bracket => return Ok(false),
            Some(b',') if !first => {
                self.pos += 1;
                self.skip_ws();
            }
            _ if first => {}
            _ => return Err(self.err(&format!("expected ',' or '{}'", bracket as char))),
        }
        Ok(true)
    }

    /// Consumes the closing bracket [`Reader::next_in`] stopped at.
    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
    }

    /// The fast path of [`Source::seek`]: where the next member's value
    /// starts, if its key is spelled exactly `"key"`. `None` decides
    /// nothing (the key may be escaped, or the text malformed).
    fn at_key(&self, start: usize, key: &str) -> Option<usize> {
        let bytes = self.input.as_bytes();
        let ws = |mut at: usize| {
            while matches!(bytes.get(at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                at += 1;
            }
            at
        };
        let mut at = ws(self.pos);
        if self.pos != start {
            if bytes.get(at) != Some(&b',') {
                return None;
            }
            at = ws(at + 1);
        }
        let end = at + 1 + key.len();
        // The two quotes first, then the name in one pass that also
        // refuses a quote or backslash in `key`: those would make equal
        // bytes mean something else, so such a key always takes the
        // tokenizer's path.
        let quoted = bytes.get(at) == Some(&b'"')
            && bytes.get(end) == Some(&b'"')
            && bytes[at + 1..end]
                .iter()
                .zip(key.as_bytes())
                .all(|(&t, &k)| t == k && k != b'"' && k != b'\\');
        let colon = ws(end + 1);
        (quoted && bytes.get(colon) == Some(&b':')).then(|| ws(colon + 1))
    }

    /// The next key of the object opened at `start`, leaving the reader
    /// on its value; `None` at the closing brace.
    fn next_key(&mut self, start: usize) -> Result<Option<Cow<'a, str>>, ParseError> {
        if !self.next_in(start, b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(Some(key))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self
            .input
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.err("\\u needs four hex digits"))?;
        self.pos += 4;
        let text = std::str::from_utf8(digits).expect("ASCII hex digits");
        Ok(u32::from_str_radix(text, 16).expect("four hex digits fit"))
    }

    /// The escape after a backslash (the one unescaper).
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.pos += 1;
                let mut code = self.hex4()?;
                if (0xd800..0xdc00).contains(&code) {
                    // A high surrogate is only the first half of a pair.
                    if !self.input[self.pos..].starts_with("\\u") {
                        return Err(self.err("lone surrogate"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(self.err("lone surrogate"));
                    }
                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                }
                return char::from_u32(code).ok_or_else(|| self.err("lone surrogate"));
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// A string, borrowed from the input unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        let mut clean = self.pos;
        loop {
            // Only ASCII bytes stop the scan, so every slice below cuts
            // on a char boundary.
            let rest = &self.input.as_bytes()[self.pos..];
            self.pos += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    let tail = &self.input[clean..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(&self.input[clean..self.pos]);
                    self.pos += 1;
                    let c = self.escape()?;
                    owned.as_mut().expect("just inserted").push(c);
                    clean = self.pos;
                }
                Some(_) => unreachable!("the scan stops at a quote or a backslash"),
            }
        }
    }

    /// One or more digits; their value unless it overflows `u64`.
    fn digits(&mut self) -> Result<Option<u64>, ParseError> {
        let start = self.pos;
        let mut value = Some(0u64);
        while let Some(d @ b'0'..=b'9') = self.peek() {
            value = value
                .and_then(|v| v.checked_mul(10))
                .and_then(|v| v.checked_add(u64::from(d - b'0')));
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        Ok(value)
    }

    /// A number by the RFC 8259 grammar: [`Json::U64`] when it is a
    /// plain non-negative integer that fits, else a finite [`Json::F64`].
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        let mut integer = self.digits()?.filter(|_| !negative);
        if leading_zero && self.pos - start > 1 + usize::from(negative) {
            return Err(self.err("leading zero"));
        }
        if self.peek() == Some(b'.') {
            integer = None;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integer = None;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        if let Some(v) = integer {
            return Ok(Json::U64(v));
        }
        match self.input[start..self.pos].parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::F64(v)),
            _ => Err(self.err("number out of range")),
        }
    }

    /// An unsigned integer by the whole grammar ([`Reader::number`]);
    /// any other number is a [`DecodeError::Shape`]. What
    /// [`Source::u64`] falls back to where its one pass cannot decide.
    fn number_u64(&mut self) -> Result<u64, DecodeError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.shape("expected an unsigned integer"));
        }
        match self.number()? {
            Json::U64(v) => Ok(v),
            _ => Err(self.shape("expected an unsigned integer")),
        }
    }

    /// The value the reader is on: its tree, or with `keep` unset only
    /// its extent (validated all the same, nothing allocated).
    fn value(&mut self, keep: bool) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => {
                let start = self.open(b'{')?;
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key(start)? {
                    let v = self.value(keep)?;
                    if keep {
                        pairs.push((key.into_owned(), v));
                    }
                }
                self.close();
                Ok(Json::Obj(pairs))
            }
            Some(b'[') => {
                let start = self.open(b'[')?;
                let mut items = Vec::new();
                while self.next_in(start, b']')? {
                    let v = self.value(keep)?;
                    if keep {
                        items.push(v);
                    }
                }
                self.close();
                Ok(Json::Arr(items))
            }
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'"') => {
                let s = self.string()?;
                Ok(if keep {
                    Json::Str(s.into_owned())
                } else {
                    Json::Null
                })
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }
}

/// Where a codec pulls a value from. [`Reader`] is the product's one
/// source; `tests/codecs.rs` walks a parsed [`Json`] tree through this
/// trait as the reference the text is read against. Either way unknown
/// keys are ignored, the first of a duplicated key wins, and a missing
/// required field is an error.
///
/// The source is always *on* a value: the document's at first, then
/// whichever [`seek`](Source::seek), [`next_entry`](Source::next_entry)
/// or [`next_item`](Source::next_item) last moved it to. A codec reads
/// every value it moves to, and seeks keys in the order the encoder
/// writes them (which keeps the text driver on its fast path; any order
/// is correct). Every method fails with [`DecodeError::Syntax`] on
/// malformed text and [`DecodeError::Shape`] on a value of another type.
pub trait Source<'a>: Sized {
    /// A place in an object being read.
    type Obj;
    /// A place in an array being read.
    type Arr;

    /// Enters the object the source is on.
    fn begin_obj(&mut self) -> Result<Self::Obj, DecodeError>;
    /// Moves to the value of `key`; `false` (and no move) without one.
    fn seek(&mut self, obj: &mut Self::Obj, key: &str) -> Result<bool, DecodeError>;
    /// Moves to the next entry's value and returns its key, for objects
    /// whose keys are data; `None` after the last.
    fn next_entry(&mut self, obj: &mut Self::Obj) -> Result<Option<Cow<'a, str>>, DecodeError>;
    /// Leaves the object, stepping over whatever was not read.
    fn end_obj(&mut self, obj: Self::Obj) -> Result<(), DecodeError>;
    /// Enters the array the source is on.
    fn begin_arr(&mut self) -> Result<Self::Arr, DecodeError>;
    /// Moves to the next item; `false` (leaving the array) after the last.
    fn next_item(&mut self, arr: &mut Self::Arr) -> Result<bool, DecodeError>;
    /// Reads `null` if that is the value; `false` (nothing read) if not.
    fn null(&mut self) -> Result<bool, DecodeError>;
    /// Reads a boolean.
    fn bool(&mut self) -> Result<bool, DecodeError>;
    /// Reads an unsigned integer.
    fn u64(&mut self) -> Result<u64, DecodeError>;
    /// Reads a string.
    fn str(&mut self) -> Result<Cow<'a, str>, DecodeError>;

    /// Reads the object the source is on: `read` seeks its fields.
    fn obj<T, E: From<DecodeError>>(
        &mut self,
        read: impl FnOnce(&mut Self, &mut Self::Obj) -> Result<T, E>,
    ) -> Result<T, E> {
        let mut obj = self.begin_obj()?;
        let v = read(self, &mut obj)?;
        self.end_obj(obj)?;
        Ok(v)
    }

    /// Reads the array the source is on, one `read` per item.
    fn items<T, E: From<DecodeError>>(
        &mut self,
        mut read: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let mut arr = self.begin_arr()?;
        let mut items = Vec::new();
        while self.next_item(&mut arr)? {
            items.push(read(self)?);
        }
        Ok(items)
    }

    /// The required value under `key`, as `read` reads it.
    fn field<T, E: From<DecodeError>>(
        &mut self,
        obj: &mut Self::Obj,
        key: &str,
        read: impl FnOnce(&mut Self) -> Result<T, E>,
    ) -> Result<T, E> {
        if !self.seek(obj, key)? {
            return Err(DecodeError::Shape(format!("missing field `{key}`")).into());
        }
        read(self)
    }

    /// The required array under `key`, one `read` per item.
    fn arr_field<T, E: From<DecodeError>>(
        &mut self,
        obj: &mut Self::Obj,
        key: &str,
        read: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        self.field(obj, key, |s| s.items(read))
    }

    /// The required unsigned integer under `key`.
    fn u64_field(&mut self, obj: &mut Self::Obj, key: &str) -> Result<u64, DecodeError> {
        self.field(obj, key, Self::u64)
    }

    /// The required unsigned integer under `key`, narrowed to `T`.
    fn uint_field<T: TryFrom<u64>>(
        &mut self,
        obj: &mut Self::Obj,
        key: &str,
    ) -> Result<T, DecodeError> {
        T::try_from(self.u64_field(obj, key)?)
            .map_err(|_| DecodeError::Shape(format!("field `{key}` is out of range")))
    }

    /// The required boolean under `key`.
    fn bool_field(&mut self, obj: &mut Self::Obj, key: &str) -> Result<bool, DecodeError> {
        self.field(obj, key, Self::bool)
    }

    /// The required string under `key`.
    fn str_field(&mut self, obj: &mut Self::Obj, key: &str) -> Result<Cow<'a, str>, DecodeError> {
        self.field(obj, key, Self::str)
    }
}

impl<'a> Source<'a> for Reader<'a> {
    type Obj = ObjCursor;
    // Byte offset just past the `[`.
    type Arr = usize;

    fn begin_obj(&mut self) -> Result<ObjCursor, DecodeError> {
        if self.peek() != Some(b'{') {
            return Err(self.shape("expected an object"));
        }
        Ok(ObjCursor {
            start: self.open(b'{')?,
            in_order: true,
        })
    }

    fn seek(&mut self, obj: &mut ObjCursor, key: &str) -> Result<bool, DecodeError> {
        let resume = self.pos;
        if !obj.in_order {
            self.pos = obj.start;
        } else if let Some(value) = self.at_key(obj.start, key) {
            self.pos = value;
            return Ok(true);
        }
        let mut skipped = false;
        while let Some(found) = self.next_key(obj.start)? {
            if found == key {
                obj.in_order &= !skipped;
                return Ok(true);
            }
            self.value(false)?;
            skipped = true;
        }
        self.pos = resume;
        Ok(false)
    }

    fn next_entry(&mut self, obj: &mut ObjCursor) -> Result<Option<Cow<'a, str>>, DecodeError> {
        Ok(self.next_key(obj.start)?)
    }

    fn end_obj(&mut self, obj: ObjCursor) -> Result<(), DecodeError> {
        if !obj.in_order {
            self.pos = obj.start;
        }
        while self.next_key(obj.start)?.is_some() {
            self.value(false)?;
        }
        self.close();
        Ok(())
    }

    fn begin_arr(&mut self) -> Result<usize, DecodeError> {
        if self.peek() != Some(b'[') {
            return Err(self.shape("expected an array"));
        }
        Ok(self.open(b'[')?)
    }

    fn next_item(&mut self, arr: &mut usize) -> Result<bool, DecodeError> {
        let more = self.next_in(*arr, b']')?;
        if !more {
            self.close();
        }
        Ok(more)
    }

    fn null(&mut self) -> Result<bool, DecodeError> {
        let null = self.peek() == Some(b'n');
        if null {
            self.literal("null")?;
        }
        Ok(null)
    }

    fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true).map_err(Into::into),
            Some(b'f') => self.literal("false").map(|()| false).map_err(Into::into),
            _ => Err(self.shape("expected a boolean")),
        }
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        // One pass for what every counter is: at most 19 digits (so the
        // value fits), no leading zero, no fraction or exponent after.
        // Anything else is left to `number_u64`, the whole grammar.
        let rest = &self.input.as_bytes()[self.pos..];
        let (mut value, mut len) = (0u64, 0);
        for &d in rest.iter().take(19) {
            if !d.is_ascii_digit() {
                break;
            }
            value = value * 10 + u64::from(d - b'0');
            len += 1;
        }
        let plain = !matches!(rest.get(len), Some(b'0'..=b'9' | b'.' | b'e' | b'E'));
        if len > 0 && plain && (rest[0] != b'0' || len == 1) {
            self.pos += len;
            return Ok(value);
        }
        self.number_u64()
    }

    fn str(&mut self) -> Result<Cow<'a, str>, DecodeError> {
        if self.peek() != Some(b'"') {
            return Err(self.shape("expected a string"));
        }
        Ok(self.string()?)
    }
}

/// Decodes a whole document straight from its text; trailing garbage is
/// a [`DecodeError::Syntax`].
pub fn from_text<'a, T, E: From<DecodeError>>(
    text: &'a str,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, E>,
) -> Result<T, E> {
    let mut r = Reader::new(text);
    let v = read(&mut r)?;
    r.finish().map_err(DecodeError::from)?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Json::obj(vec![
            ("name", Json::Str("fig6/bzip2".into())),
            ("cycles", Json::U64(123_456_789)),
            ("ratio", Json::F64(1.25)),
            ("ok", Json::Bool(true)),
            ("sc", Json::Null),
            (
                "cores",
                Json::Arr(vec![Json::U64(1), Json::U64(2), Json::U64(3)]),
            ),
        ]);
        let s = v.to_string();
        let back = parse(&s).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.to_string(), s, "serialization is stable");
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = Json::obj(vec![
            ("a", Json::Arr(vec![Json::U64(1), Json::Obj(vec![])])),
            ("b", Json::Obj(vec![("c".into(), Json::Arr(vec![]))])),
        ]);
        assert_eq!(parse(&v.to_pretty()).unwrap(), v);
        assert_eq!(
            v.to_pretty(),
            "{\n  \"a\": [\n    1,\n    {}\n  ],\n  \"b\": {\n    \"c\": []\n  }\n}\n"
        );
        assert_eq!(v.to_string(), r#"{"a":[1,{}],"b":{"c":[]}}"#);
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}π🚀".into());
        assert_eq!(v.to_string(), "\"a\\\"b\\\\c\\nd\\te\\u0001π🚀\"");
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn unicode_escape_parses() {
        assert_eq!(parse("\"\\u0041\\u00e9\"").unwrap(), Json::Str("Aé".into()));
        // A surrogate pair, as a standard encoder escapes 🚀.
        assert_eq!(
            parse("\"\\ud83d\\ude80!\"").unwrap(),
            Json::Str("🚀!".into())
        );
    }

    #[test]
    fn integers_stay_exact() {
        let v = parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(v, Json::U64(u64::MAX));
        assert_eq!(v.to_string(), u64::MAX.to_string());
        assert_eq!(Json::U64(0).to_string(), "0");
    }

    #[test]
    fn negative_and_float_numbers() {
        assert_eq!(parse("-3.5").unwrap(), Json::F64(-3.5));
        assert_eq!(parse("1e3").unwrap(), Json::F64(1000.0));
        assert_eq!(parse("-0").unwrap(), Json::F64(0.0));
        assert_eq!(parse("0.5E-1").unwrap(), Json::F64(0.05));
    }

    #[test]
    fn a_float_is_written_as_one_whatever_precedes_it() {
        let v = Json::Arr(vec![Json::Str("1.5".into()), Json::F64(2.0)]);
        assert_eq!(v.to_string(), r#"["1.5",2.0]"#);
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"k": [1, "two", null]}"#).unwrap();
        let arr = v.get("k").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_str(), Some("two"));
        assert!(arr[2].is_null());
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn raw_splices_parse_back_to_the_original_tree() {
        let inner = Json::obj(vec![
            ("status", Json::Str("ok".into())),
            ("cycles", Json::U64(42)),
        ]);
        // Stored pretty text (trailing newline and all), spliced both
        // compactly and prettily inside a larger document.
        let stored = inner.to_pretty();
        let emit = |w: &mut Writer<'_>| {
            w.begin_obj();
            w.u64_field("index", 7);
            w.key("outcome");
            w.raw(&stored);
            w.end_obj();
        };
        let compact = to_text(false, emit);
        assert_eq!(
            compact,
            "{\"index\":7,\"outcome\":{\n  \"status\": \"ok\",\n  \"cycles\": 42\n}}"
        );
        for text in [compact, to_text(true, emit)] {
            let back = parse(&text).unwrap();
            assert_eq!(back.get("index").unwrap().as_u64(), Some(7));
            assert_eq!(back.get("outcome").unwrap(), &inner);
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1,]",
            "[,1]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "tru",
            "1 2",
            "\"\\x\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn the_tokenizer_is_strict_rfc_8259() {
        for bad in [
            "\"\\u+123\"",
            "\"\\u12\"",
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ude80\"",
            "01",
            "-01",
            "1.",
            ".5",
            "-",
            "1e",
            "1e+",
            "1e999",
            "-1e999",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        // Too large for u64 but finite: a float, as before.
        assert_eq!(
            parse("18446744073709551616").unwrap(),
            Json::F64(18_446_744_073_709_551_616.0)
        );
    }

    #[test]
    fn nesting_is_capped_not_recursed_into() {
        for open in ["[", "{\"a\":"] {
            assert!(parse(&open.repeat(200_000)).is_err());
            let close = if open == "[" { "]" } else { "}" };
            let ok = format!("{}1{}", open.repeat(MAX_DEPTH), close.repeat(MAX_DEPTH));
            assert!(parse(&ok).is_ok(), "{MAX_DEPTH} levels parse");
            let deep = format!(
                "{}1{}",
                open.repeat(MAX_DEPTH + 1),
                close.repeat(MAX_DEPTH + 1)
            );
            assert!(parse(&deep).is_err(), "one more does not");
            // The cap also guards values a codec steps over.
            let skipped = format!("{{\"x\":{deep},\"n\":1}}");
            let read: Result<u64, DecodeError> =
                from_text(&skipped, |r| r.obj(|r, o| r.u64_field(o, "n")));
            assert!(matches!(read, Err(DecodeError::Syntax(_))));
        }
    }

    /// `Source::u64`'s one pass decides exactly what the whole grammar
    /// decides: the same value or the same error, with the reader left
    /// on the same byte.
    #[test]
    fn the_integer_fast_path_agrees_with_the_grammar() {
        fn agree(text: &str) {
            let (mut fast, mut slow) = (Reader::new(text), Reader::new(text));
            assert_eq!(Source::u64(&mut fast), slow.number_u64(), "{text:?}");
            assert_eq!(fast.pos, slow.pos, "{text:?}");
        }
        for text in [
            "0",
            "00",
            "01",
            "9999999999999999999",
            "18446744073709551615",
            "18446744073709551616",
        ] {
            agree(text);
        }
        let mut rng = hfs_sim::Rng64::new(0xd161_7500);
        for len in 1..=21 {
            for lead in ["", "0", "-"] {
                for tail in ["", "-", "+", ".", ".5", "e", "E7", "e-2", "1.0e+3"] {
                    for end in ["", ",", "}", "]", " ", "\t", "\n", "\r"] {
                        for _ in 0..3 {
                            let digits: String = (0..len)
                                .map(|_| char::from(b'0' + rng.below(10) as u8))
                                .collect();
                            agree(&format!("{lead}{digits}{tail}{end}"));
                        }
                    }
                }
            }
        }
    }

    /// A sought key holding `"` or `\` is matched by the tokenizer, by
    /// what the text means, never by equal bytes.
    #[test]
    fn a_key_with_a_quote_or_backslash_never_matches_raw_bytes() {
        // Each text spells its key byte for byte; the key it holds is
        // another, or the text is not JSON.
        for (text, key, holds) in [
            (r#"{"a\"b":1}"#, r#"a\"b"#, Some(r#"a"b"#)),
            (r#"{"a\\b":1}"#, r"a\\b", Some(r"a\b")),
            (r#"{"\\":1}"#, r"\\", Some(r"\")),
            (r#"{"a"b":1}"#, r#"a"b"#, None),
        ] {
            let read = |key: &str| {
                from_text(text, |r| {
                    r.obj(|r, o| {
                        assert_eq!(r.at_key(o.start, key), None, "{text} {key}");
                        if r.seek(o, key)? {
                            r.u64().map(Some)
                        } else {
                            Ok(None)
                        }
                    })
                })
            };
            match holds {
                Some(held) => {
                    assert_eq!(read(key), Ok(None), "{text} does not hold {key}");
                    assert_eq!(read(held), Ok(Some(1)), "{text} holds {held}");
                }
                None => assert!(matches!(read(key), Err(DecodeError::Syntax(_))), "{text}"),
            }
        }
        // A plain key does take the byte path.
        let mut r = Reader::new(r#"{"ab":1}"#);
        let o = r.begin_obj().unwrap();
        assert_eq!(r.at_key(o.start, "ab").map(|at| &r.input[at..]), Some("1}"));
    }

    /// `{"a":…,"b":…,"c":[…]}` read by a codec through the text source.
    fn read_abc<'a, S: Source<'a>>(s: &mut S) -> Result<(u64, String, Vec<u64>), DecodeError> {
        s.obj(|s, o| {
            let a = s.u64_field(o, "a")?;
            let b = s.str_field(o, "b")?.into_owned();
            let c = if s.seek(o, "c")? {
                s.items(Source::u64)?
            } else {
                Vec::new()
            };
            Ok((a, b, c))
        })
    }

    /// The same read off the parsed tree's accessors, which also take the
    /// first of a duplicated key.
    fn abc_of(v: &Json) -> Option<(u64, String, Vec<u64>)> {
        let c = match v.get("c") {
            Some(c) => c
                .as_arr()?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<_>>()?,
            None => Vec::new(),
        };
        Some((v.get("a")?.as_u64()?, v.get("b")?.as_str()?.to_string(), c))
    }

    #[test]
    fn both_sources_agree_on_order_unknowns_duplicates_and_absences() {
        for (text, want) in [
            (r#"{"a":1,"b":"x","c":[2,3]}"#, Some((1, "x", vec![2, 3]))),
            (r#" { "a" : 1 , "b" : "x" } "#, Some((1, "x", vec![]))),
            // Out of order, with unknown keys of every type between.
            (
                r#"{"z":{"a":9},"c":[],"b":"\u0078","y":[1,{"b":2}],"a":1,"w":null}"#,
                Some((1, "x", vec![])),
            ),
            // The first of a duplicated key wins, in or out of order.
            (r#"{"a":1,"a":2,"b":"x","b":7}"#, Some((1, "x", vec![]))),
            (r#"{"b":"x","a":1,"b":"y","a":"z"}"#, Some((1, "x", vec![]))),
            (r#"{"a":1}"#, None),
            (r#"{"a":"1","b":"x"}"#, None),
            (r#"{"a":1.0,"b":"x"}"#, None),
            (r#"{"a":1,"b":"x","c":[1,"2"]}"#, None),
            (r#"[1,"x"]"#, None),
        ] {
            let by_text = from_text(text, read_abc).ok();
            assert_eq!(by_text, abc_of(&parse(text).unwrap()), "{text}");
            let want = want.map(|(a, b, c)| (a, b.to_string(), c));
            assert_eq!(by_text, want, "{text}");
        }
        // Text the codec never looks at is still validated.
        for bad in [
            r#"{"a":1,"b":"x","q":tru}"#,
            r#"{"a":1,"b":"x"} x"#,
            r#"{"a":1,"b":"x""#,
            r#"{"q":01,"a":1,"b":"x"}"#,
            r#"{"a":1 "b":"x"}"#,
            r#"{,"a":1,"b":"x"}"#,
            r#"{"a":1,,"b":"x"}"#,
            r#"{"a" 1,"b":"x"}"#,
        ] {
            assert!(
                matches!(from_text(bad, read_abc), Err(DecodeError::Syntax(_))),
                "{bad}"
            );
        }
    }

    /// The compact and the pretty writer: each writes its exact text, and
    /// both texts parse to one tree.
    #[test]
    fn both_sinks_agree() {
        fn emit(s: &mut Writer<'_>) {
            s.begin_obj();
            s.str_field("s", "a\"b");
            s.key("empty");
            s.begin_arr();
            s.end_arr();
            s.key("arr");
            s.begin_arr();
            s.u64(1);
            s.begin_obj();
            s.end_obj();
            s.null();
            s.f64(0.5);
            s.end_arr();
            s.bool_field("t", true);
            s.key("raw");
            s.raw("{\n  \"k\": 1\n}\n");
            s.end_obj();
        }
        let (compact, pretty) = (to_text(false, emit), to_text(true, emit));
        assert_eq!(
            compact,
            "{\"s\":\"a\\\"b\",\"empty\":[],\"arr\":[1,{},null,0.5],\"t\":true,\"raw\":{\n  \"k\": 1\n}}"
        );
        assert_eq!(
            pretty,
            "{\n  \"s\": \"a\\\"b\",\n  \"empty\": [],\n  \"arr\": [\n    1,\n    {},\n    null,\n    0.5\n  ],\n  \"t\": true,\n  \"raw\": {\n  \"k\": 1\n}\n}\n"
        );
        assert_eq!(parse(&compact).unwrap(), parse(&pretty).unwrap());
    }
}
