//! Archive statistics blocks: the optimizer statistics — histograms and
//! distinct sketches included — survive a write→read round trip, a corrupt
//! statistics block is a typed [`ArchiveError`], never a panic and never
//! silently stale estimates, and any version but the current one is
//! rejected up front.

use legobase_tpch::archive::{self, ArchiveError, MAGIC, VERSION};
use legobase_tpch::{TpchData, TABLES};

const SCALE: f64 = 0.002;

/// Histograms and sketches written to the archive decode bit-identically, without a
/// re-collection pass masking a broken stats block.
#[test]
fn v2_round_trips_histograms_and_sketches() {
    let data = TpchData::generate(SCALE);
    let bytes = archive::to_bytes(&data).expect("serialize");
    assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), VERSION);
    let back = archive::from_bytes(&bytes).expect("parse");
    let mut saw_histogram = false;
    let mut saw_sketch = false;
    for &name in &TABLES {
        let a = data.catalog.stats(name).expect("generated stats");
        let b = back.catalog.stats(name).expect("loaded stats");
        assert_eq!(a, b, "{name}: loaded statistics differ from generated");
        saw_histogram |= b.columns.iter().any(|c| c.histogram.is_some());
        saw_sketch |= b.columns.iter().any(|c| c.sketch.is_some());
    }
    assert!(saw_histogram, "no histogram survived the round trip");
    assert!(saw_sketch, "no sketch survived the round trip");
}

/// Every way a stats block can rot — flipped payload byte (checksum),
/// truncated tail, inconsistent histogram structure — comes back as a typed
/// error, never a panic.
#[test]
fn corrupt_stats_blocks_are_typed_errors() {
    let data = TpchData::generate(SCALE);
    let bytes = archive::to_bytes(&data).expect("serialize");
    assert_eq!(&bytes[..4], &MAGIC);
    let stats_start = stats_offset(&bytes);

    // The stats blocks occupy everything past the tables: corrupt a byte
    // inside them and the checksum must refuse before any parsing.
    let mut flipped = bytes.clone();
    let mid = stats_start + (flipped.len() - stats_start) / 2;
    flipped[mid] ^= 0x01;
    match archive::from_bytes(&flipped) {
        Err(ArchiveError::Corrupt(m)) => {
            assert!(m.contains("statistics") || m.contains("checksum"), "unhelpful: {m}")
        }
        Err(e) => panic!("expected Corrupt, got: {e}"),
        Ok(_) => panic!("flipped stats byte parsed cleanly"),
    }

    // A truncated stats block is typed too.
    assert!(matches!(
        archive::from_bytes(&bytes[..bytes.len() - 9]),
        Err(ArchiveError::Truncated | ArchiveError::Corrupt(_))
    ));

    // And extra trailing bytes after the last block never pass silently.
    let mut padded = bytes.clone();
    padded.extend_from_slice(&[0u8; 4]);
    assert!(matches!(archive::from_bytes(&padded), Err(ArchiveError::Corrupt(_))));
}

/// Byte offset where the statistics blocks begin: the file header, then
/// each table record and its aligned column records.
fn stats_offset(bytes: &[u8]) -> usize {
    let info = archive::inspect_bytes(bytes).expect("inspect");
    let mut pos = 20;
    for table in &info.tables {
        pos += 2 + table.name.len() + 12;
        for c in &table.columns {
            pos = (pos + 9).next_multiple_of(8) + c.payload_bytes + 8;
        }
    }
    pos
}

/// Every version but [`VERSION`] is rejected up front — the retired v1 and
/// v2 formats included.
#[test]
fn unknown_versions_rejected() {
    let data = TpchData::generate(SCALE);
    let mut bytes = archive::to_bytes(&data).expect("serialize");
    bytes[4..8].copy_from_slice(&(VERSION + 1).to_le_bytes());
    assert!(matches!(archive::from_bytes(&bytes), Err(ArchiveError::BadVersion(_))));
    for old in [0u32, 1, 2] {
        bytes[4..8].copy_from_slice(&old.to_le_bytes());
        assert!(
            matches!(archive::from_bytes(&bytes), Err(ArchiveError::BadVersion(v)) if v == old),
            "version {old} must be rejected"
        );
        assert!(matches!(archive::inspect_bytes(&bytes), Err(ArchiveError::BadVersion(_))));
    }
}
