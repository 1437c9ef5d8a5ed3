//! The persistent column archive (`.lbca`).
//!
//! `dbgen` runs are deterministic but not free — at SF 0.1 the generator is
//! already the dominant cost of a cold benchmark run. The archive persists a
//! generated database in a dependency-free columnar format so later runs
//! (and CI, which caches the file as an artifact) load with a single
//! `fs::read` instead of regenerating.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "LBCA" | version u32 | scale_factor f64 | table_count u32
//! per table:   name (u16 len + bytes) | row_count u64 | col_count u32
//! per column:  tag u8 | payload_len u64 | zero pad to 8-byte file offset |
//!              payload | fnv1a(payload) u64
//! after the last table, one stats block per table (TABLES order):
//!              payload_len u64 | payload | fnv1a(payload) u64
//! ```
//!
//! Integer and date columns store the same frame-of-reference bit-packed
//! form the engine scans ([`legobase_storage::PackedInts`]) whenever packing
//! shrinks them — the encoding tag per column records the choice. A packed
//! payload is a 24-byte header (`base i64 | max i64 | width u8` plus seven
//! zero bytes) followed by the words.
//!
//! The reader accepts version 3 only; archives are regenerable caches, and
//! older files get [`ArchiveError::BadVersion`]. It rejects tampered headers
//! and payloads with typed [`ArchiveError`]s: checksums are verified
//! *before* any payload is parsed, a table's row count is checked against
//! what its column payloads can hold before anything is allocated by it, and
//! each payload decodes straight into its typed column vector — the plain
//! `I64`/`F64`/`Date`/`Str`/`Bool` [`Column`]s that [`TpchData`] stores and
//! every specialized load shares.
//!
//! The statistics blocks carry the optimizer statistics — row counts,
//! per-column distinct counts and bounds, equi-depth histograms, and
//! distinct sketches — so a loaded archive serves the same estimates as a
//! fresh `dbgen` run without a collection pass over the data. A corrupt
//! stats block is a typed [`ArchiveError::Corrupt`], never a panic, and
//! never a silent fall-back to stale estimates.
//!
//! Every column payload starts at an 8-byte file offset (deterministic zero
//! padding whose length follows from the cursor position alone, so writer
//! and reader agree without storing it), and the packed header is 24 bytes,
//! so the packed words sit 8-byte aligned in the file. [`read_mapped`]
//! exploits this: it `mmap`s the archive and hands the engine [`PackedInts`]
//! that borrow the packed words straight from the page cache (zero copies,
//! zero decode until a kernel asks). A mapping failure falls back to the
//! ordinary read+decode path; misaligned or truncated payloads are typed
//! [`ArchiveError`]s, never panics or unaligned reads.

use crate::gen::TpchData;
use crate::schema::{catalog, TABLES};
use legobase_storage::{
    Column, ColumnStats, ColumnTable, Date, DistinctSketch, Histogram, Mapping, PackedInts,
    TableStatistics, Type, Value,
};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// File magic: "LegoBase Column Archive".
pub const MAGIC: [u8; 4] = *b"LBCA";
/// The format version, the only one the reader accepts (v3: statistics
/// blocks and 8-byte-aligned mappable payloads).
pub const VERSION: u32 = 3;
/// Bytes of a packed payload's header: `base i64 | max i64 | width u8`,
/// zero-padded so the words that follow stay 8-byte aligned.
const PACKED_HEADER: usize = 24;

/// Everything that can go wrong writing or reading an archive.
#[derive(Debug)]
pub enum ArchiveError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's version is not [`VERSION`].
    BadVersion(u32),
    /// The file ends before its structure says it should.
    Truncated,
    /// A checksum mismatch or malformed payload.
    Corrupt(String),
    /// The file's tables do not match the compiled-in TPC-H catalog.
    SchemaMismatch(String),
    /// The database holds a value the format cannot represent.
    Unsupported(String),
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "archive I/O: {e}"),
            ArchiveError::BadMagic => write!(f, "not a LegoBase column archive (bad magic)"),
            ArchiveError::BadVersion(v) => {
                write!(f, "unsupported archive version {v} (expected {VERSION})")
            }
            ArchiveError::Truncated => write!(f, "archive truncated"),
            ArchiveError::Corrupt(m) => write!(f, "archive corrupt: {m}"),
            ArchiveError::SchemaMismatch(m) => write!(f, "archive schema mismatch: {m}"),
            ArchiveError::Unsupported(m) => write!(f, "archive cannot represent: {m}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<std::io::Error> for ArchiveError {
    fn from(e: std::io::Error) -> ArchiveError {
        ArchiveError::Io(e)
    }
}

// Per-column encoding tags.
const TAG_I64_RAW: u8 = 0;
const TAG_I64_PACKED: u8 = 1;
const TAG_F64: u8 = 2;
const TAG_DATE_RAW: u8 = 3;
const TAG_DATE_PACKED: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_BOOL: u8 = 6;

/// FNV-1a over a byte slice — the format's checksum (dependency-free and
/// byte-order independent).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Serializes a database to the archive byte format.
pub fn to_bytes(data: &TpchData) -> Result<Vec<u8>, ArchiveError> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&data.scale_factor.to_le_bytes());
    out.extend_from_slice(&(TABLES.len() as u32).to_le_bytes());
    // TABLES order keeps the bytes deterministic for a given database.
    for &name in &TABLES {
        let table = data.table(name);
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(table.len as u64).to_le_bytes());
        out.extend_from_slice(&(table.schema.len() as u32).to_le_bytes());
        for c in 0..table.schema.len() {
            let (tag, payload) = encode_column(name, table, c)?;
            out.push(tag);
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            // Zero-pad so every payload starts on an 8-byte file offset (the
            // pad length is a pure function of the cursor position, so the
            // reader re-derives it without a stored length; it verifies the
            // pad bytes are zero for determinism).
            while out.len() % 8 != 0 {
                out.push(0);
            }
            let sum = fnv1a(&payload);
            out.extend_from_slice(&payload);
            out.extend_from_slice(&sum.to_le_bytes());
        }
    }
    for &name in &TABLES {
        let stats = data.catalog.stats(name).ok_or_else(|| {
            ArchiveError::Unsupported(format!("`{name}` carries no optimizer statistics"))
        })?;
        let payload = encode_stats(stats);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let sum = fnv1a(&payload);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&sum.to_le_bytes());
    }
    Ok(out)
}

// Tags of the stats block's serialized `Value` bounds.
const VAL_NONE: u8 = 0;
const VAL_INT: u8 = 1;
const VAL_FLOAT: u8 = 2;
const VAL_STR: u8 = 3;
const VAL_DATE: u8 = 4;
const VAL_BOOL: u8 = 5;

fn encode_value(out: &mut Vec<u8>, v: Option<&Value>) {
    match v {
        None | Some(Value::Null) => out.push(VAL_NONE),
        Some(Value::Int(i)) => {
            out.push(VAL_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Some(Value::Float(f)) => {
            out.push(VAL_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Some(Value::Str(s)) => {
            out.push(VAL_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Some(Value::Date(d)) => {
            out.push(VAL_DATE);
            out.extend_from_slice(&d.0.to_le_bytes());
        }
        Some(Value::Bool(b)) => {
            out.push(VAL_BOOL);
            out.push(*b as u8);
        }
    }
}

/// Serializes one table's [`TableStatistics`] into a stats-block payload.
fn encode_stats(stats: &TableStatistics) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(stats.rows as u64).to_le_bytes());
    out.extend_from_slice(&(stats.columns.len() as u32).to_le_bytes());
    for col in &stats.columns {
        out.extend_from_slice(&(col.distinct as u64).to_le_bytes());
        encode_value(&mut out, col.min.as_ref());
        encode_value(&mut out, col.max.as_ref());
        match &col.histogram {
            Some(h) => {
                out.push(1);
                out.extend_from_slice(&(h.bounds.len() as u32).to_le_bytes());
                for b in &h.bounds {
                    out.extend_from_slice(&b.to_bits().to_le_bytes());
                }
                for c in &h.counts {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
            None => out.push(0),
        }
        match &col.sketch {
            Some(s) => {
                out.push(1);
                out.extend_from_slice(&(s.registers().len() as u32).to_le_bytes());
                out.extend_from_slice(s.registers());
            }
            None => out.push(0),
        }
    }
    out
}

/// Writes the archive file for a database.
pub fn write(data: &TpchData, path: &Path) -> Result<(), ArchiveError> {
    Ok(std::fs::write(path, to_bytes(data)?)?)
}

fn encode_column(name: &str, table: &ColumnTable, c: usize) -> Result<(u8, Vec<u8>), ArchiveError> {
    let ty = table.schema.ty(c);
    match (ty, table.column(c)) {
        (Type::Int, Column::I64(vals)) => {
            Ok(pack_or_raw(vals, 8, TAG_I64_PACKED, TAG_I64_RAW, || {
                vals.iter().flat_map(|v| v.to_le_bytes()).collect()
            }))
        }
        (Type::Date, Column::Date(days)) => {
            let vals: Vec<i64> = days.iter().map(|&d| d as i64).collect();
            Ok(pack_or_raw(&vals, 4, TAG_DATE_PACKED, TAG_DATE_RAW, || {
                days.iter().flat_map(|d| d.to_le_bytes()).collect()
            }))
        }
        (Type::Float, Column::F64(vals)) => {
            Ok((TAG_F64, vals.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect()))
        }
        (Type::Str, Column::Str(vals)) => {
            let mut payload = Vec::new();
            for s in vals.iter() {
                payload.extend_from_slice(&(s.len() as u32).to_le_bytes());
                payload.extend_from_slice(s.as_bytes());
            }
            Ok((TAG_STR, payload))
        }
        (Type::Bool, Column::Bool(vals)) => Ok((TAG_BOOL, vals.iter().map(|&b| b as u8).collect())),
        (_, col) => Err(ArchiveError::Unsupported(format!(
            "{name}.{} is a {} column, not a plain {ty}",
            table.schema.fields[c].name,
            col.kind_name()
        ))),
    }
}

/// Packs `vals` frame-of-reference when that beats `raw_width` bytes per
/// value; otherwise calls `raw` for the plain payload. The header is padded
/// to [`PACKED_HEADER`] bytes so the words land on an 8-byte file offset
/// relative to the (aligned) payload start — the property [`read_mapped`]
/// needs to borrow them in place.
fn pack_or_raw(
    vals: &[i64],
    raw_width: usize,
    packed_tag: u8,
    raw_tag: u8,
    raw: impl FnOnce() -> Vec<u8>,
) -> (u8, Vec<u8>) {
    let p = PackedInts::from_values(vals);
    if !vals.is_empty() && PACKED_HEADER + p.words().len() * 8 < vals.len() * raw_width {
        let mut payload = Vec::with_capacity(PACKED_HEADER + p.words().len() * 8);
        payload.extend_from_slice(&p.base().to_le_bytes());
        payload.extend_from_slice(&p.max().to_le_bytes());
        payload.push(p.width());
        payload.resize(PACKED_HEADER, 0);
        for w in p.words() {
            payload.extend_from_slice(&w.to_le_bytes());
        }
        (packed_tag, payload)
    } else {
        (raw_tag, raw())
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian cursor over the archive bytes.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ArchiveError> {
        let end = self.pos.checked_add(n).ok_or(ArchiveError::Truncated)?;
        if end > self.bytes.len() {
            return Err(ArchiveError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ArchiveError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ArchiveError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ArchiveError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ArchiveError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, ArchiveError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ArchiveError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// The next `count` fixed-width little-endian fields, as byte arrays.
    fn fixed<const N: usize>(
        &mut self,
        count: usize,
    ) -> Result<impl Iterator<Item = [u8; N]> + 'a, ArchiveError> {
        let bytes = self.take(count.checked_mul(N).ok_or(ArchiveError::Truncated)?)?;
        Ok(bytes.chunks_exact(N).map(|b| b.try_into().unwrap()))
    }
}

/// Reads an archive file back into a database with a single `fs::read`.
/// The catalog serves the statistics the archive carries (histograms and
/// sketches included), matching a freshly generated database bit for bit.
pub fn read(path: &Path) -> Result<TpchData, ArchiveError> {
    from_bytes(&std::fs::read(path)?)
}

/// Reads an archive by `mmap`ing it read-only: the packed words of the
/// bit-packed columns are *borrowed* from the page cache instead of copied
/// — [`TpchData::mapped_packed`] serves them to the engine, which
/// substitutes them for its own re-encode, so a mapped load and a plain
/// [`read`] produce bit-identical base columns and query results.
///
/// Fallback discipline (DESIGN.md §3e): a mapping failure — filesystem
/// without mmap, exotic platform, empty file — silently degrades to the
/// read+decode path. Corruption — truncated words, a misaligned payload,
/// nonzero alignment padding — is a typed [`ArchiveError`], never a panic
/// or an unaligned access.
pub fn read_mapped(path: &Path) -> Result<TpchData, ArchiveError> {
    match Mapping::map_file(path) {
        Ok(map) => {
            let map = Arc::new(map);
            from_bytes_impl(map.bytes(), Some(&map))
        }
        Err(_) => read(path),
    }
}

/// Parses the archive byte format (heap-owned columns, nothing mapped).
pub fn from_bytes(bytes: &[u8]) -> Result<TpchData, ArchiveError> {
    from_bytes_impl(bytes, None)
}

/// Reads the file header up to the table count, rejecting a bad magic or any
/// version but [`VERSION`].
fn read_header(cur: &mut Cursor<'_>) -> Result<(f64, usize), ArchiveError> {
    if cur.take(4)? != MAGIC {
        return Err(ArchiveError::BadMagic);
    }
    let version = cur.u32()?;
    if version != VERSION {
        return Err(ArchiveError::BadVersion(version));
    }
    let scale_factor = cur.f64()?;
    Ok((scale_factor, cur.u32()? as usize))
}

/// Reads a table record's name and declared row count.
fn read_table_header(cur: &mut Cursor<'_>) -> Result<(String, u64), ArchiveError> {
    let name_len = cur.u16()? as usize;
    let name = std::str::from_utf8(cur.take(name_len)?)
        .map_err(|_| ArchiveError::Corrupt("non-UTF-8 table name".into()))?
        .to_string();
    if !TABLES.contains(&name.as_str()) {
        return Err(ArchiveError::SchemaMismatch(format!("unknown table `{name}`")));
    }
    Ok((name, cur.u64()?))
}

/// One column record whose pad and checksum verified; the payload is not
/// parsed yet.
struct RawColumn<'a> {
    tag: u8,
    /// Byte offset of the payload in the file (8-byte aligned).
    offset: usize,
    payload: &'a [u8],
}

/// Reads column `c`'s record: tag, length, alignment pad (checked zero —
/// the checksum covers only the payload), payload, and checksum (verified
/// before anything parses the payload).
fn read_raw_column<'a>(
    cur: &mut Cursor<'a>,
    name: &str,
    c: usize,
) -> Result<RawColumn<'a>, ArchiveError> {
    let tag = cur.u8()?;
    let payload_len = cur.u64()? as usize;
    let pad = (8 - cur.pos % 8) % 8;
    if cur.take(pad)?.iter().any(|&b| b != 0) {
        return Err(ArchiveError::Corrupt(format!(
            "nonzero alignment pad before `{name}` column {c}"
        )));
    }
    let offset = cur.pos;
    let payload = cur.take(payload_len)?;
    if fnv1a(payload) != cur.u64()? {
        return Err(ArchiveError::Corrupt(format!("checksum mismatch in `{name}` column {c}")));
    }
    Ok(RawColumn { tag, offset, payload })
}

/// The most rows a column payload can hold: raw payloads fix their bytes
/// per row, a string needs at least its 4-byte length, and a packed payload
/// of width `w` holds at most `64 / w` values per word. A width-0 packed
/// payload (and an unknown tag, which decoding rejects) bounds nothing.
fn max_rows(raw: &RawColumn<'_>) -> Option<usize> {
    let len = raw.payload.len();
    match raw.tag {
        TAG_I64_RAW | TAG_F64 => Some(len / 8),
        TAG_DATE_RAW | TAG_STR => Some(len / 4),
        TAG_BOOL => Some(len),
        TAG_I64_PACKED | TAG_DATE_PACKED => match raw.payload.get(16) {
            None => Some(0),
            Some(0) => None,
            Some(&w) => {
                Some((len.saturating_sub(PACKED_HEADER) / 8).saturating_mul(64) / w as usize)
            }
        },
        _ => None,
    }
}

/// The shared parser. When `mapping` is present, every bit-packed column
/// additionally yields a zero-copy [`PackedInts`] borrowing its words from
/// the mapping at their 8-byte-aligned file offset; the values are still
/// decoded into the plain base column.
fn from_bytes_impl(bytes: &[u8], mapping: Option<&Arc<Mapping>>) -> Result<TpchData, ArchiveError> {
    let mut cur = Cursor { bytes, pos: 0 };
    let (scale_factor, table_count) = read_header(&mut cur)?;
    if table_count != TABLES.len() {
        return Err(ArchiveError::SchemaMismatch(format!(
            "{table_count} tables, expected {}",
            TABLES.len()
        )));
    }
    let mut cat = catalog();
    let mut tables = HashMap::new();
    let mut mapped: HashMap<(String, usize), Arc<PackedInts>> = HashMap::new();
    for _ in 0..table_count {
        let (name, declared_rows) = read_table_header(&mut cur)?;
        let schema = cat.table(&name).schema.clone();
        let col_count = cur.u32()? as usize;
        if col_count != schema.len() {
            return Err(ArchiveError::SchemaMismatch(format!(
                "`{name}` has {col_count} columns, expected {}",
                schema.len()
            )));
        }
        let raw = (0..col_count)
            .map(|c| read_raw_column(&mut cur, &name, c))
            .collect::<Result<Vec<_>, _>>()?;
        // The row count sits outside every checksum: bound it by what the
        // verified payloads can hold before anything is sized by it.
        let rows = match raw.iter().filter_map(max_rows).min() {
            Some(bound) if declared_rows <= bound as u64 => declared_rows as usize,
            _ => {
                return Err(ArchiveError::Corrupt(format!(
                    "`{name}` declares {declared_rows} rows, more than its column payloads hold"
                )))
            }
        };
        let mut columns = Vec::with_capacity(col_count);
        for (c, col) in raw.iter().enumerate() {
            let map = mapping.map(|m| (m, col.offset));
            let (column, mp) = decode_column(&name, c, schema.ty(c), col, rows, map)?;
            if let Some(mp) = mp {
                mapped.insert((name.clone(), c), mp);
            }
            columns.push(column);
        }
        tables.insert(name, ColumnTable { schema, len: rows, columns });
    }
    // The statistics travelled with the data — decode, validate, and serve
    // them without a collection pass.
    for &name in &TABLES {
        let payload = read_stats_block(&mut cur, name)?;
        let table = tables.get(name).ok_or_else(|| {
            ArchiveError::SchemaMismatch(format!("table `{name}` missing from archive"))
        })?;
        let stats = decode_stats(name, payload, table.len, table.schema.len())?;
        cat.set_stats(name, stats);
    }
    if cur.pos != bytes.len() {
        return Err(ArchiveError::Corrupt("trailing bytes after last table".into()));
    }
    Ok(TpchData::from_parts(cat, scale_factor, tables, mapped))
}

/// Reads one statistics block and verifies its checksum.
fn read_stats_block<'a>(cur: &mut Cursor<'a>, name: &str) -> Result<&'a [u8], ArchiveError> {
    let payload_len = cur.u64()? as usize;
    let payload = cur.take(payload_len)?;
    if fnv1a(payload) != cur.u64()? {
        return Err(ArchiveError::Corrupt(format!(
            "checksum mismatch in `{name}` statistics block"
        )));
    }
    Ok(payload)
}

/// Decodes one verified payload straight into its typed base column. With a
/// mapping (and the payload's file offset), a packed payload also yields the
/// zero-copy [`PackedInts`] over its words.
fn decode_column(
    name: &str,
    c: usize,
    ty: Type,
    raw: &RawColumn<'_>,
    rows: usize,
    map: Option<(&Arc<Mapping>, usize)>,
) -> Result<(Column, Option<Arc<PackedInts>>), ArchiveError> {
    let corrupt = |m: &str| ArchiveError::Corrupt(format!("`{name}` column {c}: {m}"));
    let mut cur = Cursor { bytes: raw.payload, pos: 0 };
    let mut mapped = None;
    let column = match (ty, raw.tag) {
        (Type::Int, TAG_I64_RAW) => {
            Column::I64(Arc::new(cur.fixed::<8>(rows)?.map(i64::from_le_bytes).collect()))
        }
        (Type::Int, TAG_I64_PACKED) | (Type::Date, TAG_DATE_PACKED) => {
            let p = read_packed(&mut cur, rows, map, &corrupt)?;
            let column = if ty == Type::Int {
                Column::I64(Arc::new(unpack_checked(&p, &corrupt, Ok)?))
            } else {
                Column::Date(Arc::new(unpack_checked(&p, &corrupt, |v| {
                    i32::try_from(v).map_err(|_| corrupt("day count out of i32 range"))
                })?))
            };
            mapped = map.is_some().then(|| Arc::new(p));
            column
        }
        (Type::Date, TAG_DATE_RAW) => {
            Column::Date(Arc::new(cur.fixed::<4>(rows)?.map(i32::from_le_bytes).collect()))
        }
        (Type::Float, TAG_F64) => {
            Column::F64(Arc::new(cur.fixed::<8>(rows)?.map(f64::from_le_bytes).collect()))
        }
        (Type::Str, TAG_STR) => {
            let mut out = Vec::with_capacity(rows);
            for _ in 0..rows {
                let len = cur.u32()? as usize;
                let s =
                    std::str::from_utf8(cur.take(len)?).map_err(|_| corrupt("non-UTF-8 string"))?;
                out.push(s.to_string());
            }
            Column::Str(Arc::new(out))
        }
        (Type::Bool, TAG_BOOL) => {
            let flags = cur.take(rows)?;
            if let Some(b) = flags.iter().find(|&&b| b > 1) {
                return Err(corrupt(&format!("byte {b} is not a boolean")));
            }
            Column::Bool(Arc::new(flags.iter().map(|&b| b == 1).collect()))
        }
        _ => return Err(corrupt(&format!("tag {} does not store a {ty} column", raw.tag))),
    };
    if cur.pos != raw.payload.len() {
        return Err(corrupt("payload longer than its row count"));
    }
    Ok((column, mapped))
}

fn decode_value(
    cur: &mut Cursor<'_>,
    corrupt: &impl Fn(&str) -> ArchiveError,
) -> Result<Option<Value>, ArchiveError> {
    Ok(match cur.u8()? {
        VAL_NONE => None,
        VAL_INT => Some(Value::Int(cur.i64()?)),
        VAL_FLOAT => Some(Value::Float(cur.f64()?)),
        VAL_STR => {
            let len = cur.u32()? as usize;
            let s = std::str::from_utf8(cur.take(len)?)
                .map_err(|_| corrupt("non-UTF-8 string bound"))?;
            Some(Value::Str(s.to_string()))
        }
        VAL_DATE => Some(Value::Date(Date(cur.u32()? as i32))),
        VAL_BOOL => Some(Value::Bool(cur.u8()? != 0)),
        t => return Err(corrupt(&format!("unknown value tag {t}"))),
    })
}

/// Decodes and validates one table's statistics-block payload. Every
/// structural error — a row count disagreeing with the column data, a
/// histogram whose bounds and counts don't line up, unsorted or non-finite
/// bounds, a sketch with the wrong register count — is a typed
/// [`ArchiveError::Corrupt`].
fn decode_stats(
    name: &str,
    payload: &[u8],
    rows: usize,
    cols: usize,
) -> Result<TableStatistics, ArchiveError> {
    let corrupt = |m: &str| ArchiveError::Corrupt(format!("`{name}` statistics: {m}"));
    let mut cur = Cursor { bytes: payload, pos: 0 };
    let stat_rows = cur.u64()? as usize;
    if stat_rows != rows {
        return Err(corrupt(&format!("claims {stat_rows} rows, table holds {rows}")));
    }
    let col_count = cur.u32()? as usize;
    if col_count != cols {
        return Err(corrupt(&format!("claims {col_count} columns, schema has {cols}")));
    }
    let mut columns = Vec::with_capacity(col_count);
    for c in 0..col_count {
        let col_corrupt = |m: &str| corrupt(&format!("column {c}: {m}"));
        let distinct = cur.u64()? as usize;
        let min = decode_value(&mut cur, &col_corrupt)?;
        let max = decode_value(&mut cur, &col_corrupt)?;
        let histogram = match cur.u8()? {
            0 => None,
            1 => {
                let n_bounds = cur.u32()? as usize;
                if n_bounds < 2 {
                    return Err(col_corrupt("histogram needs at least two bounds"));
                }
                let bounds: Vec<f64> = cur.fixed::<8>(n_bounds)?.map(f64::from_le_bytes).collect();
                if bounds.iter().any(|b| !b.is_finite()) {
                    return Err(col_corrupt("non-finite histogram bound"));
                }
                if bounds.windows(2).any(|w| w[0] > w[1]) {
                    return Err(col_corrupt("histogram bounds unsorted"));
                }
                let counts = cur.fixed::<8>(n_bounds - 1)?.map(u64::from_le_bytes).collect();
                Some(Histogram { bounds, counts })
            }
            t => return Err(col_corrupt(&format!("bad histogram marker {t}"))),
        };
        let sketch = match cur.u8()? {
            0 => None,
            1 => {
                let len = cur.u32()? as usize;
                let registers = cur.take(len)?.to_vec();
                Some(
                    DistinctSketch::from_registers(registers)
                        .ok_or_else(|| col_corrupt("sketch register count mismatch"))?,
                )
            }
            t => return Err(col_corrupt(&format!("bad sketch marker {t}"))),
        };
        columns.push(ColumnStats { distinct, min, max, histogram, sketch });
    }
    if cur.pos != payload.len() {
        return Err(corrupt("trailing bytes after last column"));
    }
    Ok(TableStatistics { rows, columns })
}

/// Reads a frame-of-reference payload, re-validating the header through
/// [`PackedInts::from_parts`] (which rejects tampered widths and word
/// counts). With a mapping, the packed column borrows its words at
/// `payload_off + 24` in the mapped file instead of copying them —
/// [`PackedInts::from_parts_mapped`] re-checks bounds and 8-byte alignment,
/// so a file that lies about its layout is a typed corruption, not undefined
/// behavior.
fn read_packed(
    cur: &mut Cursor<'_>,
    rows: usize,
    map: Option<(&Arc<Mapping>, usize)>,
    corrupt: &impl Fn(&str) -> ArchiveError,
) -> Result<PackedInts, ArchiveError> {
    let base = cur.i64()?;
    let max = cur.i64()?;
    let width = cur.u8()?;
    if cur.take(PACKED_HEADER - 17)?.iter().any(|&b| b != 0) {
        return Err(corrupt("nonzero pad in packed header"));
    }
    let words = cur.fixed::<8>(PackedInts::words_for(rows, width))?;
    match map {
        Some((m, payload_off)) => {
            let words_off = payload_off + PACKED_HEADER;
            PackedInts::from_parts_mapped(base, max, width, rows, Arc::clone(m), words_off)
                .ok_or_else(|| corrupt("invalid frame-of-reference header or misaligned words"))
        }
        None => {
            let words = words.map(u64::from_le_bytes).collect();
            PackedInts::from_parts(base, max, width, rows, words)
                .ok_or_else(|| corrupt("invalid frame-of-reference header"))
        }
    }
}

/// Decodes a packed column into its plain vector through `convert`, a block
/// at a time (no whole-column temporary), validating every value against
/// the declared maximum.
fn unpack_checked<T>(
    p: &PackedInts,
    corrupt: &impl Fn(&str) -> ArchiveError,
    convert: impl Fn(i64) -> Result<T, ArchiveError>,
) -> Result<Vec<T>, ArchiveError> {
    let mut out = Vec::with_capacity(p.len());
    let mut block = [0i64; 1024];
    let mut start = 0;
    while start < p.len() {
        let block = &mut block[..(p.len() - start).min(1024)];
        p.unpack_range(start, block);
        for &v in block.iter() {
            if v > p.max() {
                return Err(corrupt("packed value above declared maximum"));
            }
            out.push(convert(v)?);
        }
        start += block.len();
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Inspection (the `tpch info` CLI)
// ---------------------------------------------------------------------------

/// Per-column metadata reported by [`inspect`].
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnInfo {
    /// Column name from the compiled-in catalog.
    pub name: String,
    /// Human-readable encoding tag (`i64-packed`, `f64`, `str`, ...).
    pub encoding: &'static str,
    /// Frame-of-reference bit width — packed columns only.
    pub bit_width: Option<u8>,
    /// Bytes the column's payload occupies in the file.
    pub payload_bytes: usize,
    /// Bytes a mapped load serves zero-copy from the page cache (the packed
    /// words); 0 for raw columns.
    pub mappable_bytes: usize,
}

/// Per-table metadata reported by [`inspect`].
#[derive(Debug, Clone, PartialEq)]
pub struct TableInfo {
    /// Table name.
    pub name: String,
    /// Row count the archive declares.
    pub rows: usize,
    /// Per-column encodings, in schema order.
    pub columns: Vec<ColumnInfo>,
}

/// Archive-level metadata reported by [`inspect`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveInfo {
    /// Format version (always [`VERSION`]).
    pub version: u32,
    /// TPC-H scale factor the archive was generated at.
    pub scale_factor: f64,
    /// Total file size.
    pub file_bytes: usize,
    /// Per-table breakdowns, in file order.
    pub tables: Vec<TableInfo>,
}

impl ArchiveInfo {
    /// Total bytes a mapped load serves zero-copy.
    pub fn mappable_bytes(&self) -> usize {
        self.tables.iter().flat_map(|t| &t.columns).map(|c| c.mappable_bytes).sum()
    }

    /// Total bytes a load must materialize on the heap regardless of
    /// mapping (raw payloads plus packed headers).
    pub fn resident_bytes(&self) -> usize {
        self.tables
            .iter()
            .flat_map(|t| &t.columns)
            .map(|c| c.payload_bytes - c.mappable_bytes)
            .sum()
    }
}

/// Reads just the structure of an archive file — versions, encodings, bit
/// widths, payload sizes — verifying checksums but decoding no values.
pub fn inspect(path: &Path) -> Result<ArchiveInfo, ArchiveError> {
    inspect_bytes(&std::fs::read(path)?)
}

/// [`inspect`] over in-memory bytes.
pub fn inspect_bytes(bytes: &[u8]) -> Result<ArchiveInfo, ArchiveError> {
    let mut cur = Cursor { bytes, pos: 0 };
    let (scale_factor, table_count) = read_header(&mut cur)?;
    let cat = catalog();
    let mut tables = Vec::with_capacity(table_count.min(TABLES.len()));
    for _ in 0..table_count {
        let (name, rows) = read_table_header(&mut cur)?;
        let schema = cat.table(&name).schema.clone();
        let col_count = cur.u32()? as usize;
        let mut columns = Vec::with_capacity(col_count.min(schema.len()));
        for c in 0..col_count {
            let raw = read_raw_column(&mut cur, &name, c)?;
            let packed = raw.tag == TAG_I64_PACKED || raw.tag == TAG_DATE_PACKED;
            let bit_width = if packed {
                if raw.payload.len() < PACKED_HEADER {
                    return Err(ArchiveError::Corrupt(format!(
                        "packed payload of `{name}` column {c} shorter than its header"
                    )));
                }
                Some(raw.payload[16])
            } else {
                None
            };
            let encoding = match raw.tag {
                TAG_I64_RAW => "i64",
                TAG_I64_PACKED => "i64-packed",
                TAG_F64 => "f64",
                TAG_DATE_RAW => "date",
                TAG_DATE_PACKED => "date-packed",
                TAG_STR => "str",
                TAG_BOOL => "bool",
                t => {
                    return Err(ArchiveError::Corrupt(format!(
                        "unknown encoding tag {t} in `{name}` column {c}"
                    )))
                }
            };
            let col_name = schema
                .fields
                .get(c)
                .map(|f| f.name.clone())
                .unwrap_or_else(|| format!("column{c}"));
            let payload_bytes = raw.payload.len();
            columns.push(ColumnInfo {
                name: col_name,
                encoding,
                bit_width,
                payload_bytes,
                mappable_bytes: if packed { payload_bytes - PACKED_HEADER } else { 0 },
            });
        }
        tables.push(TableInfo { name, rows: rows as usize, columns });
    }
    // Stats blocks are skipped but still checksum-verified, so `inspect` on
    // a corrupt file fails the same way `read` would.
    for &name in &TABLES {
        read_stats_block(&mut cur, name)?;
    }
    if cur.pos != bytes.len() {
        return Err(ArchiveError::Corrupt("trailing bytes after last table".into()));
    }
    Ok(ArchiveInfo { version: VERSION, scale_factor, file_bytes: bytes.len(), tables })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::bit_identical;

    fn tiny() -> TpchData {
        TpchData::generate(0.002)
    }

    #[test]
    fn round_trip_is_lossless() {
        let data = tiny();
        let bytes = to_bytes(&data).expect("serialize");
        let back = from_bytes(&bytes).expect("parse");
        assert_eq!(back.scale_factor, data.scale_factor);
        for &name in &TABLES {
            let (a, b) = (data.table(name), back.table(name));
            assert_eq!(a.schema, b.schema, "{name} schema");
            assert!(bit_identical(a, b), "{name} columns");
        }
        // The persisted statistics decode to exactly what the generator
        // attached — histograms and sketches included.
        for &name in &TABLES {
            let (a, b) = (
                data.catalog.stats(name).expect("generated stats"),
                back.catalog.stats(name).expect("loaded stats"),
            );
            assert_eq!(a, b, "{name} statistics");
        }
    }

    #[test]
    fn archive_beats_raw_row_bytes() {
        let data = tiny();
        let bytes = to_bytes(&data).expect("serialize");
        assert!(
            bytes.len() < data.approx_bytes(),
            "archive ({}) should be smaller than the row data ({})",
            bytes.len(),
            data.approx_bytes()
        );
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = to_bytes(&tiny()).expect("serialize");
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(from_bytes(&wrong), Err(ArchiveError::BadMagic)));
        bytes[4] = 99;
        assert!(matches!(from_bytes(&bytes), Err(ArchiveError::BadVersion(_))));
    }

    #[test]
    fn rejects_truncation_and_payload_corruption() {
        let bytes = to_bytes(&tiny()).expect("serialize");
        assert!(matches!(
            from_bytes(&bytes[..bytes.len() - 3]),
            Err(ArchiveError::Truncated | ArchiveError::Corrupt(_))
        ));
        // Flip one byte in the middle of the first table's payloads: the
        // checksum (or, for a header byte, the FoR validation) must catch it.
        let mut corrupt = bytes.clone();
        let mid = bytes.len() / 3;
        corrupt[mid] ^= 0x40;
        assert!(
            matches!(
                from_bytes(&corrupt),
                Err(ArchiveError::Corrupt(_)
                    | ArchiveError::Truncated
                    | ArchiveError::SchemaMismatch(_))
            ),
            "a flipped byte must not parse cleanly"
        );
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("legobase-archive-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("tpch-sf0.002.lbca");
        let data = tiny();
        write(&data, &path).expect("write");
        let back = read(&path).expect("read");
        assert!(bit_identical(back.table("lineitem"), data.table("lineitem")));
        std::fs::remove_file(&path).ok();
    }

    /// Base columns from `generate`, `read` and `read_mapped` are the same
    /// bit for bit, and the borrowed packed words decode to the values the
    /// eager path materialized.
    #[test]
    fn mapped_load_is_bit_identical() {
        let dir = std::env::temp_dir().join("legobase-archive-mmap-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("tpch-sf0.002.lbca");
        let data = tiny();
        write(&data, &path).expect("write");
        let plain = read(&path).expect("read");
        let mapped = read_mapped(&path).expect("read_mapped");
        assert!(mapped.mapped_bytes() > 0, "a mapped load should borrow packed words zero-copy");
        assert_eq!(plain.mapped_bytes(), 0, "the plain path owns everything");
        for &name in &TABLES {
            assert!(bit_identical(plain.table(name), mapped.table(name)), "{name} read vs mapped");
            assert!(
                bit_identical(data.table(name), mapped.table(name)),
                "{name} generated vs mapped"
            );
            assert_eq!(plain.catalog.stats(name), mapped.catalog.stats(name), "{name} stats");
        }
        // The borrowed words decode to exactly the values the eager path
        // materialized — the substitution the engine performs is lossless.
        let li = plain.table("lineitem");
        let mut checked = 0;
        for c in 0..li.schema.len() {
            if let Some(p) = mapped.mapped_packed("lineitem", c) {
                assert!(p.is_mapped());
                let decoded: Vec<i64> = p.iter().collect();
                match li.column(c) {
                    Column::I64(v) => assert_eq!(&decoded, &**v),
                    Column::Date(v) => {
                        assert!(decoded.iter().zip(v.iter()).all(|(&a, &b)| a == b as i64))
                    }
                    other => panic!("mapped column {c} holds {}", other.kind_name()),
                }
                checked += 1;
            }
        }
        assert!(checked > 0, "lineitem should have at least one mapped packed column");
        std::fs::remove_file(&path).ok();
    }

    /// Byte offset of table `t`'s row count in an archive of `data` (the
    /// file header is 20 bytes, each table record precedes its columns).
    fn row_count_offset(bytes: &[u8], t: usize) -> usize {
        let info = inspect_bytes(bytes).expect("inspect");
        let mut pos = 20;
        for table in &info.tables[..t] {
            pos += 2 + table.name.len() + 12;
            for c in &table.columns {
                pos = (pos + 9).next_multiple_of(8) + c.payload_bytes + 8;
            }
        }
        pos + 2 + info.tables[t].name.len()
    }

    /// The row count sits outside every checksum: a tampered count is a
    /// typed error before anything is allocated by it, never an abort.
    #[test]
    fn tampered_row_count_is_a_typed_error() {
        let bytes = to_bytes(&TpchData::generate(0.001)).expect("serialize");
        for (t, count) in [(0, 1u64 << 40), (0, u64::MAX), (7, 1 << 40), (0, 6)] {
            let pos = row_count_offset(&bytes, t);
            let mut tampered = bytes.clone();
            let declared = u64::from_le_bytes(tampered[pos..pos + 8].try_into().unwrap());
            assert_eq!(declared as usize, inspect_bytes(&bytes).unwrap().tables[t].rows);
            tampered[pos..pos + 8].copy_from_slice(&count.to_le_bytes());
            match from_bytes(&tampered) {
                Err(ArchiveError::Corrupt(_) | ArchiveError::Truncated) => {}
                Err(e) => panic!("table {t} count {count}: unexpected error {e}"),
                Ok(_) => panic!("table {t} count {count}: tampered row count parsed cleanly"),
            }
        }
    }

    /// A histogram length is read from the stats block: bound it by the
    /// payload before allocating, so a huge count is a typed error.
    #[test]
    fn huge_histogram_length_is_a_typed_error() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&0u64.to_le_bytes()); // rows
        payload.extend_from_slice(&1u32.to_le_bytes()); // columns
        payload.extend_from_slice(&0u64.to_le_bytes()); // distinct
        payload.extend_from_slice(&[VAL_NONE, VAL_NONE, 1]); // min, max, histogram
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // bound count
        assert!(matches!(decode_stats("region", &payload, 0, 1), Err(ArchiveError::Truncated)));
    }

    #[test]
    fn rejects_nonzero_alignment_pad() {
        let mut bytes = to_bytes(&tiny()).expect("serialize");
        // File header (20) + first table record (2 + "region" + 8 + 4) +
        // first column's tag and payload_len (9) = the pad position.
        let pos = 20 + 2 + TABLES[0].len() + 12 + 9;
        assert_ne!(pos % 8, 0, "test assumes the first payload needs padding");
        assert_eq!(bytes[pos], 0, "writer pads with zeros");
        bytes[pos] = 1;
        assert!(matches!(from_bytes(&bytes), Err(ArchiveError::Corrupt(_))));
        assert!(matches!(inspect_bytes(&bytes), Err(ArchiveError::Corrupt(_))));
    }

    #[test]
    fn inspect_reports_structure() {
        let data = tiny();
        let bytes = to_bytes(&data).expect("serialize");
        let info = inspect_bytes(&bytes).expect("inspect");
        assert_eq!(info.version, VERSION);
        assert_eq!(info.scale_factor, data.scale_factor);
        assert_eq!(info.file_bytes, bytes.len());
        assert_eq!(info.tables.len(), TABLES.len());
        let li = info.tables.iter().find(|t| t.name == "lineitem").expect("lineitem");
        assert_eq!(li.rows, data.table("lineitem").len);
        let packed: Vec<_> =
            li.columns.iter().filter(|c| c.encoding.ends_with("-packed")).collect();
        assert!(!packed.is_empty(), "lineitem should hold packed columns");
        for c in &packed {
            assert!(c.bit_width.is_some(), "{} reports no width", c.name);
            assert_eq!(c.mappable_bytes, c.payload_bytes - 24, "{} words", c.name);
        }
        assert!(info.mappable_bytes() > 0);
        assert!(info.resident_bytes() > 0);
        let total: usize =
            info.tables.iter().flat_map(|t| &t.columns).map(|c| c.payload_bytes).sum();
        assert_eq!(info.mappable_bytes() + info.resident_bytes(), total);
    }

    #[test]
    fn error_display_is_readable() {
        assert!(ArchiveError::BadMagic.to_string().contains("magic"));
        assert!(ArchiveError::BadVersion(7).to_string().contains('7'));
        assert!(ArchiveError::Corrupt("x".into()).to_string().contains("corrupt"));
    }
}
