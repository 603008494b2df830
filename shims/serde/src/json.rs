//! JSON text, streamed: [`Writer`] renders values as a type visits its
//! fields, and [`Reader`] parses a typed value straight from the text.
//! Neither builds a [`Value`] unless the type being read or written is
//! one.
//!
//! Floats are written with Rust's shortest round-trip `Display`, so a
//! write → read cycle reproduces every `f64` bit-exactly (finite values;
//! non-finite floats are written as `null`, as serde_json does).

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::{expected, DeError, Serialize, Value};

/// Deepest container nesting a [`Reader`] accepts, serde_json's
/// recursion limit. Deeper input is a parse error, not a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// Renders JSON text, compact or pretty (two-space indent; empty
/// containers stay `[]` and `{}`).
pub struct Writer {
    out: String,
    pretty: bool,
    depth: usize,
}

impl Writer {
    pub fn new(pretty: bool) -> Self {
        Writer {
            out: String::new(),
            pretty,
            depth: 0,
        }
    }

    pub fn into_string(self) -> String {
        self.out
    }

    pub(crate) fn null(&mut self) {
        self.out.push_str("null");
    }

    pub(crate) fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    pub(crate) fn u64(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        for &d in &digits[i..] {
            self.out.push(char::from(d));
        }
    }

    pub(crate) fn i64(&mut self, n: i64) {
        if n < 0 {
            self.out.push('-');
        }
        self.u64(n.unsigned_abs());
    }

    /// Integral floats below 1e15 keep a `.0` (`1.0`, `-0.0`) so they stay
    /// distinguishable as floats; other finite floats print in std's
    /// shortest round-trip form; NaN and infinities print as `null`.
    pub(crate) fn f64(&mut self, x: f64) {
        if !x.is_finite() {
            self.null();
        } else if x == x.trunc() && x.abs() < 1e15 {
            if x.is_sign_negative() {
                self.out.push('-');
            }
            self.u64(x.abs() as u64);
            self.out.push_str(".0");
        } else {
            let _ = write!(self.out, "{x}");
        }
    }

    /// A string, escaping `"`, `\` and control characters; everything
    /// else is written verbatim, in runs.
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        let bytes = s.as_bytes();
        let mut run = 0;
        loop {
            let i = run_end::<true>(bytes, run);
            // Every byte escaped is ASCII, so both cuts are char boundaries.
            self.out.push_str(&s[run..i]);
            let Some(&b) = bytes.get(i) else {
                break;
            };
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
            run = i + 1;
        }
        self.out.push('"');
    }

    pub(crate) fn begin_seq(&mut self) {
        self.open('[');
    }

    /// Writes one element of the open sequence.
    pub(crate) fn elem<T: Serialize + ?Sized>(&mut self, v: &T) {
        self.item();
        v.serialize(self);
    }

    pub(crate) fn end_seq(&mut self) {
        self.close(']');
    }

    pub fn begin_map(&mut self) {
        self.open('{');
    }

    /// Writes the key of an entry of the open map; its value follows.
    pub fn key(&mut self, k: &str) {
        self.item();
        self.str(k);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    /// Writes one entry of the open map.
    pub fn entry<T: Serialize + ?Sized>(&mut self, k: &str, v: &T) {
        self.key(k);
        v.serialize(self);
    }

    pub fn end_map(&mut self) {
        self.close('}');
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
    }

    /// Separates an element or entry from the one before it.
    fn item(&mut self) {
        if !self.just_opened() {
            self.out.push(',');
        }
        self.newline();
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.just_opened() {
            self.newline();
        }
        self.out.push(bracket);
    }

    /// Whether the innermost container is still empty: no value, key or
    /// separator ends in a bracket that opens.
    fn just_opened(&self) -> bool {
        matches!(self.out.as_bytes().last(), Some(b'[' | b'{'))
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..self.depth {
                self.out.push_str("  ");
            }
        }
    }
}

/// The index of the first byte at or after `from` that ends a run of
/// string text, or `bytes.len()`: a `"` or `\`, and with `CONTROL` any
/// byte below 0x20 as well (the writer escapes those; the reader takes
/// them verbatim). Scans eight bytes a word: `(x - n·0x01…) & !x & 0x80…`
/// flags the lowest byte of `x` below `n` exactly (flags above it may be
/// spurious). A byte of `w ^ pattern` is zero where `w` holds the
/// pattern's byte, so `n = 1` finds `"` and `\`, and `n = 0x20` on `w`
/// itself finds a control byte; the lowest flag of the tests is the first
/// match.
fn run_end<const CONTROL: bool>(bytes: &[u8], from: usize) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    let below = |x: u64, n: u8| x.wrapping_sub(ONES * u64::from(n)) & !x & HIGHS;
    let mut i = from;
    while let Some(word) = bytes.get(i..i + 8) {
        let mut le = [0u8; 8];
        le.copy_from_slice(word);
        let w = u64::from_le_bytes(le);
        let mut hits =
            below(w ^ (ONES * u64::from(b'"')), 1) | below(w ^ (ONES * u64::from(b'\\')), 1);
        if CONTROL {
            hits |= below(w, 0x20);
        }
        if hits != 0 {
            return i + hits.trailing_zeros() as usize / 8;
        }
        i += 8;
    }
    bytes
        .get(i..)
        .and_then(|rest| {
            rest.iter()
                .position(|&b| b == b'"' || b == b'\\' || (CONTROL && b < 0x20))
        })
        .map_or(bytes.len(), |k| i + k)
}

/// Parses JSON text one value at a time; a type drives it through its
/// fields.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// Refuses anything but whitespace after the value read.
    pub fn finish(&mut self) -> Result<(), DeError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(DeError(format!(
                "trailing characters at offset {}",
                self.pos
            )));
        }
        Ok(())
    }

    /// Reads any value into a [`Value`].
    pub(crate) fn value(&mut self) -> Result<Value, DeError> {
        match self.peek()? {
            b'n' => self.word("null", Value::Null),
            b't' => self.word("true", Value::Bool(true)),
            b'f' => self.word("false", Value::Bool(false)),
            b'"' => Ok(Value::Str(self.string()?.into_owned())),
            b'[' => {
                let mut items = Vec::new();
                self.seq("sequence", |r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Value::Seq(items))
            }
            b'{' => {
                let mut entries = Vec::new();
                self.map("map", |r, k| {
                    entries.push((k.to_string(), r.value()?));
                    Ok(())
                })?;
                Ok(Value::Map(entries))
            }
            b'-' | b'0'..=b'9' => self.number_token(),
            b => Err(DeError(format!(
                "unexpected character `{}` at offset {}",
                b as char, self.pos
            ))),
        }
    }

    /// Parses and drops the next value.
    pub fn skip(&mut self) -> Result<(), DeError> {
        self.value().map(drop)
    }

    /// Consumes a `null` if one is next.
    pub(crate) fn null(&mut self) -> Result<bool, DeError> {
        Ok(self.peek()? == b'n' && self.literal("null"))
    }

    /// Reads a sequence, calling `elem` once per element. Anything else
    /// is refused as not a `what`.
    pub(crate) fn seq(
        &mut self,
        what: &str,
        mut elem: impl FnMut(&mut Self) -> Result<(), DeError>,
    ) -> Result<(), DeError> {
        self.open(b'[', what)?;
        if self.closes(b']') {
            return Ok(());
        }
        loop {
            elem(self)?;
            if !self.more(b']')? {
                return Ok(());
            }
        }
    }

    /// Reads a map, calling `entry` with each key; `entry` reads (or
    /// [`Reader::skip`]s) the value. Anything else is refused as not a
    /// `what`.
    pub fn map(
        &mut self,
        what: &str,
        mut entry: impl FnMut(&mut Self, &str) -> Result<(), DeError>,
    ) -> Result<(), DeError> {
        self.open(b'{', what)?;
        if self.closes(b'}') {
            return Ok(());
        }
        loop {
            let key = self.key()?;
            entry(self, &key)?;
            if !self.more(b'}')? {
                return Ok(());
            }
        }
    }

    /// Reads an enum variant of `name`: a unit variant is a string, any
    /// other a map with exactly one entry, keyed by the variant. `variant`
    /// gets the tag and whether it came as a string; for a map it reads
    /// the entry's value.
    pub fn variant<T>(
        &mut self,
        name: &str,
        variant: impl FnOnce(&mut Self, &str, bool) -> Result<T, DeError>,
    ) -> Result<T, DeError> {
        match self.peek()? {
            b'"' => {
                let tag = self.string()?;
                return variant(self, &tag, true);
            }
            b'{' => self.open(b'{', "map")?,
            _ => return Err(self.unexpected(&format!("{name} variant"))),
        }
        let tag = self.key()?;
        let v = variant(self, &tag, false)?;
        if self.more(b'}')? {
            return Err(DeError(format!(
                "expected one entry for a {name} variant, found more at offset {}",
                self.pos
            )));
        }
        Ok(v)
    }

    /// Reads a string, borrowed from the input unless it holds escapes.
    /// Anything else is refused as not a string.
    pub fn str(&mut self) -> Result<Cow<'a, str>, DeError> {
        if self.peek()? != b'"' {
            return Err(self.unexpected("string"));
        }
        self.string()
    }

    /// The string that starts at the cursor.
    fn string(&mut self) -> Result<Cow<'a, str>, DeError> {
        self.expect(b'"')?;
        let text = self.text;
        let bytes = text.as_bytes();
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            self.pos = run_end::<false>(bytes, self.pos);
            // Runs start and end next to ASCII bytes: char boundaries.
            let run = text
                .get(start..self.pos)
                .ok_or_else(|| DeError::custom("invalid UTF-8 in string"))?;
            match bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    let esc = *bytes
                        .get(self.pos)
                        .ok_or_else(|| DeError::custom("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| DeError::custom("truncated \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| DeError::custom("invalid \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| DeError::custom("invalid \\u code point"))?,
                            );
                        }
                        other => {
                            return Err(DeError(format!("unknown escape `\\{}`", other as char)));
                        }
                    }
                }
                _ => return Err(DeError::custom("unterminated string")),
            }
        }
    }

    /// The error for a value that is not a `what`: names the value found.
    fn unexpected(&mut self, what: &str) -> DeError {
        match self.value() {
            Ok(got) => expected(what, &got),
            Err(e) => e,
        }
    }

    /// Reads a number; anything else is refused as not a `what`.
    #[inline]
    pub(crate) fn number(&mut self, what: &str) -> Result<Value, DeError> {
        match self.peek()? {
            b'-' | b'0'..=b'9' => self.number_token(),
            _ => Err(self.unexpected(what)),
        }
    }

    /// A number token. An integer stays an exact `U64` (`I64` when
    /// negative) unless it overflows, when it becomes an `F64` like any
    /// token with a fraction or exponent.
    fn number_token(&mut self) -> Result<Value, DeError> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let negative = bytes.get(start) == Some(&b'-');
        let digits = start + usize::from(negative);
        let mut pos = digits;
        let mut n = Some(0u64);
        while let Some(&b) = bytes.get(pos) {
            if !b.is_ascii_digit() {
                break;
            }
            n = n.and_then(|n| n.checked_mul(10)?.checked_add(u64::from(b - b'0')));
            pos += 1;
        }
        let integral = pos;
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(pos).copied() {
            pos += 1;
        }
        self.pos = pos;
        if let (true, true, Some(n)) = (pos == integral, pos > digits, n) {
            if !negative {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = i64::try_from(n) {
                return Ok(Value::I64(-n));
            }
        }
        let text = &self.text[start..pos];
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| DeError(format!("invalid number `{text}`")))
    }

    fn word(&mut self, lit: &str, v: Value) -> Result<Value, DeError> {
        if self.literal(lit) {
            Ok(v)
        } else {
            Err(DeError(format!("invalid literal at offset {}", self.pos)))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// A map key and the colon after it.
    fn key(&mut self) -> Result<Cow<'a, str>, DeError> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(key)
    }

    /// Enters a container that must open with `bracket`.
    fn open(&mut self, bracket: u8, what: &str) -> Result<(), DeError> {
        if self.peek()? != bracket {
            return Err(self.unexpected(what));
        }
        if self.depth == MAX_DEPTH {
            return Err(DeError(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            )));
        }
        self.pos += 1;
        self.depth += 1;
        Ok(())
    }

    /// Leaves the container just opened if it is empty.
    #[inline]
    fn closes(&mut self, bracket: u8) -> bool {
        self.skip_ws();
        if self.peek_byte() == Some(bracket) {
            self.pos += 1;
            self.depth -= 1;
            true
        } else {
            false
        }
    }

    /// After an element: whether another follows (`,`) or the container
    /// ends (`bracket`).
    #[inline]
    fn more(&mut self, bracket: u8) -> Result<bool, DeError> {
        self.skip_ws();
        match self.peek_byte() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if b == bracket => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(DeError(format!(
                "expected `,` or `{}` at {}",
                bracket as char, self.pos
            ))),
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), DeError> {
        if self.peek_byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(DeError(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    /// The first byte of the next value, after whitespace.
    #[inline]
    fn peek(&mut self) -> Result<u8, DeError> {
        self.skip_ws();
        self.peek_byte()
            .ok_or_else(|| DeError::custom("unexpected end of input"))
    }

    #[inline]
    fn peek_byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek_byte() {
            self.pos += 1;
        }
    }
}
