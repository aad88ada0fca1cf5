//! Crash-safe, multiplexed checkpointing of a live fleet monitor: one
//! versioned `HBMDFLTS` file holds the shared trained [`Detector`]
//! (model, feature projection, evaluation, sanitizer) plus every
//! stream's resume cursor, vote/hysteresis [`StreamState`], and
//! [`StreamHealth`] — each in its own checksummed section — so a
//! restarted fleet resumes without retraining.
//!
//! # File layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"HBMDFLTS"
//! 8       4     format version (LE u32, currently 1)
//! 12      8     config digest (LE u64, FNV-1a of the run config)
//! 20      4     shard count (LE u32)
//! 24      8     stream-section count (LE u64)
//! 32      8     FNV-1a 64 checksum of bytes [8 .. 32]
//! 40      —     detector section: LE u64 length, payload, FNV-1a 64 of payload
//! …       —     stream sections, same frame; payload = stream id,
//!               cursor, StreamState, StreamHealth (Snap-encoded)
//! ```
//!
//! The header and the detector section are load-bearing for the whole
//! fleet: any corruption there refuses the file with a typed
//! [`SnapshotError`] before a single payload byte is decoded. A corrupt
//! *stream* section only loses that stream — [`decode_fleet`] skips it,
//! counts it in [`FleetRestore::lost_sections`], and the caller starts
//! the affected stream pristine while every other stream resumes.
//!
//! Writes go through a temporary file in the same directory followed by
//! an atomic rename, so readers never observe a half-written snapshot —
//! a crash mid-write leaves the previous snapshot intact. Loading also
//! refuses a file from a different format version or recorded under a
//! different run-config digest; callers treat every whole-file refusal
//! the same way: discard the snapshot and retrain.
//!
//! # Examples
//!
//! ```no_run
//! use hbmd_core::snapshot::{self, StreamSection};
//!
//! # fn demo(
//! #     detector: &hbmd_core::Detector,
//! #     sections: &[StreamSection],
//! # ) -> Result<(), hbmd_core::snapshot::SnapshotError> {
//! snapshot::save_fleet(detector, 4, 0xDEAD_BEEF, sections, "fleet.snap".as_ref())?;
//! match snapshot::load_fleet("fleet.snap".as_ref(), 0xDEAD_BEEF) {
//!     Ok(restore) => println!(
//!         "resuming {} streams ({} lost)",
//!         restore.streams.len(),
//!         restore.lost_sections
//!     ),
//!     Err(refusal) => println!("retraining: {refusal}"),
//! }
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::io;
use std::path::Path;

use hbmd_ml::snap::{Snap, SnapError, SnapReader, SnapWriter};
use hbmd_obs::manifest::fnv1a_64;
use hbmd_obs::recorder::write_file_atomic;

use crate::detector::Detector;
use crate::fleet::StreamHealth;
use crate::online::StreamState;

/// Current fleet snapshot format version; bump on wire-format change.
pub const FLEET_SNAPSHOT_VERSION: u32 = 1;

/// File magic identifying an hbmd fleet snapshot.
pub const FLEET_MAGIC: &[u8; 8] = b"HBMDFLTS";

const FLEET_HEADER_LEN: usize = 8 + 4 + 8 + 4 + 8 + 8;

/// Why a snapshot was refused (or could not be written).
///
/// Every variant except [`SnapshotError::Io`] on save means the same
/// thing operationally: the snapshot is unusable, fall back to
/// retraining.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Reading or writing the file failed.
    Io(io::Error),
    /// The file does not start with [`FLEET_MAGIC`].
    BadMagic,
    /// The file's format version is not [`FLEET_SNAPSHOT_VERSION`].
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
    },
    /// The file is shorter than its header/payload length claims.
    Truncated,
    /// The FNV-1a checksum does not match the file contents.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum recomputed over the file contents.
        actual: u64,
    },
    /// The snapshot was recorded under a different run configuration.
    ConfigMismatch {
        /// Digest recorded in the snapshot.
        snapshot: u64,
        /// Digest of the currently running configuration.
        current: u64,
    },
    /// The checksummed payload failed structural decoding. (Reachable
    /// only across code versions that share [`FLEET_SNAPSHOT_VERSION`] but
    /// disagree on the schema — the checksum catches corruption first.)
    Decode(SnapError),
    /// The payload decoded but left unconsumed bytes.
    TrailingBytes {
        /// Number of undecoded payload bytes.
        extra: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o failed: {e}"),
            SnapshotError::BadMagic => write!(f, "not a fleet snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "snapshot format version {found} unsupported (expected {FLEET_SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot file truncated"),
            SnapshotError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "snapshot checksum mismatch (recorded {expected:#018x}, computed {actual:#018x})"
                )
            }
            SnapshotError::ConfigMismatch { snapshot, current } => {
                write!(
                    f,
                    "snapshot belongs to config {snapshot:#018x}, not running config {current:#018x}"
                )
            }
            SnapshotError::Decode(e) => write!(f, "snapshot payload undecodable: {e}"),
            SnapshotError::TrailingBytes { extra } => {
                write!(f, "snapshot payload has {extra} trailing bytes")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

/// One stream's slice of a fleet snapshot: identity, resume cursor,
/// vote/hysteresis state, and health standing.
#[derive(Debug, Clone)]
pub struct StreamSection {
    /// Stream (endpoint) id.
    pub stream: u64,
    /// Timeline windows of this stream already observed.
    pub cursor: u64,
    /// The stream's vote-window/hysteresis state.
    pub state: StreamState,
    /// The stream's quarantine state machine.
    pub health: StreamHealth,
}

/// What [`decode_fleet`] recovered: everything the file held, minus
/// any stream sections that were individually corrupt.
#[derive(Debug)]
pub struct FleetRestore {
    /// Shard count recorded at save time.
    pub shards: u32,
    /// Config digest recorded at save time (already verified).
    pub config_digest: u64,
    /// The shared trained detector.
    pub detector: Detector,
    /// Stream sections that decoded cleanly, in file order.
    pub streams: Vec<StreamSection>,
    /// Stream sections dropped to per-stream fallback (checksum or
    /// decode failure). `streams.len() + lost_sections` equals the
    /// section count the header declared.
    pub lost_sections: usize,
}

fn frame_section(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a_64(payload).to_le_bytes());
}

/// Encode a fleet snapshot to its full framed file image.
pub fn encode_fleet(
    detector: &Detector,
    shards: u32,
    config_digest: u64,
    sections: &[StreamSection],
) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(FLEET_MAGIC);
    bytes.extend_from_slice(&FLEET_SNAPSHOT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&config_digest.to_le_bytes());
    bytes.extend_from_slice(&shards.to_le_bytes());
    bytes.extend_from_slice(&(sections.len() as u64).to_le_bytes());
    let header_checksum = fnv1a_64(&bytes[FLEET_MAGIC.len()..]);
    bytes.extend_from_slice(&header_checksum.to_le_bytes());

    let mut payload = SnapWriter::new();
    detector.snap(&mut payload);
    frame_section(&mut bytes, &payload.into_bytes());

    for section in sections {
        let mut payload = SnapWriter::new();
        payload.put_u64(section.stream);
        payload.put_u64(section.cursor);
        section.state.snap(&mut payload);
        section.health.snap(&mut payload);
        frame_section(&mut bytes, &payload.into_bytes());
    }
    bytes
}

/// A framed section sliced out of `bytes` at `offset`, or `None` when
/// the frame does not fit (a corrupt length field counts as not
/// fitting — framing past it cannot be trusted).
struct Frame<'a> {
    payload: &'a [u8],
    recorded: u64,
    checksum_ok: bool,
    next_offset: usize,
}

fn read_frame(bytes: &[u8], offset: usize) -> Option<Frame<'_>> {
    let len_end = offset.checked_add(8)?;
    if len_end > bytes.len() {
        return None;
    }
    let len = u64::from_le_bytes(bytes[offset..len_end].try_into().expect("8 bytes"));
    let len = usize::try_from(len).ok()?;
    let payload_end = len_end.checked_add(len)?;
    let next_offset = payload_end.checked_add(8)?;
    if next_offset > bytes.len() {
        return None;
    }
    let payload = &bytes[len_end..payload_end];
    let recorded = u64::from_le_bytes(bytes[payload_end..next_offset].try_into().expect("8 bytes"));
    Some(Frame {
        payload,
        recorded,
        checksum_ok: recorded == fnv1a_64(payload),
        next_offset,
    })
}

fn decode_stream_section(payload: &[u8]) -> Result<StreamSection, SnapError> {
    let mut r = SnapReader::new(payload);
    let stream = r.get_u64()?;
    let cursor = r.get_u64()?;
    let state = StreamState::unsnap(&mut r)?;
    let health = StreamHealth::unsnap(&mut r)?;
    if !r.is_done() {
        return Err(SnapError::Invalid(format!(
            "stream section has {} trailing bytes",
            r.remaining()
        )));
    }
    Ok(StreamSection {
        stream,
        cursor,
        state,
        health,
    })
}

/// Decode a fleet snapshot image with per-stream fallback.
///
/// Header and detector-section corruption refuse the whole file (the
/// fleet cannot serve without its model); a corrupt stream section
/// only drops that stream into [`FleetRestore::lost_sections`].
///
/// # Errors
///
/// Returns a [`SnapshotError`] when the header, detector section,
/// version, or config digest is unusable.
pub fn decode_fleet(bytes: &[u8], expected_digest: u64) -> Result<FleetRestore, SnapshotError> {
    if bytes.len() < FLEET_MAGIC.len() {
        return Err(SnapshotError::Truncated);
    }
    if &bytes[..FLEET_MAGIC.len()] != FLEET_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if bytes.len() < FLEET_HEADER_LEN {
        return Err(SnapshotError::Truncated);
    }
    let field = |offset: usize, len: usize| &bytes[offset..offset + len];
    let recorded = u64::from_le_bytes(field(32, 8).try_into().expect("8 bytes"));
    let actual = fnv1a_64(&bytes[FLEET_MAGIC.len()..32]);
    if recorded != actual {
        return Err(SnapshotError::ChecksumMismatch {
            expected: recorded,
            actual,
        });
    }
    let version = u32::from_le_bytes(field(8, 4).try_into().expect("4 bytes"));
    if version != FLEET_SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let config_digest = u64::from_le_bytes(field(12, 8).try_into().expect("8 bytes"));
    if config_digest != expected_digest {
        return Err(SnapshotError::ConfigMismatch {
            snapshot: config_digest,
            current: expected_digest,
        });
    }
    let shards = u32::from_le_bytes(field(20, 4).try_into().expect("4 bytes"));
    let section_count = u64::from_le_bytes(field(24, 8).try_into().expect("8 bytes"));
    let Ok(section_count) = usize::try_from(section_count) else {
        return Err(SnapshotError::Truncated);
    };

    // The detector section is all-or-nothing: without the model there
    // is nothing to resume.
    let Some(frame) = read_frame(bytes, FLEET_HEADER_LEN) else {
        return Err(SnapshotError::Truncated);
    };
    if !frame.checksum_ok {
        return Err(SnapshotError::ChecksumMismatch {
            expected: frame.recorded,
            actual: fnv1a_64(frame.payload),
        });
    }
    let mut reader = SnapReader::new(frame.payload);
    let detector = Detector::unsnap(&mut reader).map_err(SnapshotError::Decode)?;
    if !reader.is_done() {
        return Err(SnapshotError::TrailingBytes {
            extra: reader.remaining(),
        });
    }

    let mut streams = Vec::with_capacity(section_count);
    let mut lost_sections = 0usize;
    let mut offset = frame.next_offset;
    let mut parsed = 0usize;
    while parsed < section_count {
        let Some(frame) = read_frame(bytes, offset) else {
            // A corrupt length field (or truncation) makes every
            // remaining frame boundary untrustworthy: those streams
            // fall back, everything already parsed survives.
            lost_sections += section_count - parsed;
            offset = bytes.len();
            break;
        };
        if frame.checksum_ok {
            match decode_stream_section(frame.payload) {
                Ok(section) => streams.push(section),
                Err(_) => lost_sections += 1,
            }
        } else {
            lost_sections += 1;
        }
        offset = frame.next_offset;
        parsed += 1;
    }
    if offset != bytes.len() {
        return Err(SnapshotError::TrailingBytes {
            extra: bytes.len() - offset,
        });
    }
    Ok(FleetRestore {
        shards,
        config_digest,
        detector,
        streams,
        lost_sections,
    })
}

/// Write a fleet snapshot crash-safely (tmp + fsync + atomic rename).
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] when the filesystem refuses; the
/// previous snapshot at `path` (if any) survives a failed write.
pub fn save_fleet(
    detector: &Detector,
    shards: u32,
    config_digest: u64,
    sections: &[StreamSection],
    path: &Path,
) -> Result<(), SnapshotError> {
    write_file_atomic(
        path,
        &encode_fleet(detector, shards, config_digest, sections),
    )?;
    Ok(())
}

/// Read and [`decode_fleet`] the snapshot at `path`.
///
/// # Errors
///
/// Returns a [`SnapshotError`] when the file is unreadable or refused
/// wholesale; individually corrupt stream sections do **not** error —
/// see [`FleetRestore::lost_sections`].
pub fn load_fleet(path: &Path, expected_digest: u64) -> Result<FleetRestore, SnapshotError> {
    let bytes = std::fs::read(path)?;
    decode_fleet(&bytes, expected_digest)
}

/// The payload byte span of every *stream* section in a fleet image,
/// in file order — the corruption-targeting helper the chaos drill and
/// the isolation proptests use to hit exactly one section.
///
/// # Errors
///
/// Returns a [`SnapshotError`] when the image's framing cannot be
/// walked (bad magic, truncated header or frames).
pub fn fleet_stream_section_spans(
    bytes: &[u8],
) -> Result<Vec<std::ops::Range<usize>>, SnapshotError> {
    if bytes.len() < FLEET_HEADER_LEN || &bytes[..FLEET_MAGIC.len()] != FLEET_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let section_count = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
    let Some(detector_frame) = read_frame(bytes, FLEET_HEADER_LEN) else {
        return Err(SnapshotError::Truncated);
    };
    let mut spans = Vec::new();
    let mut offset = detector_frame.next_offset;
    for _ in 0..section_count {
        let Some(frame) = read_frame(bytes, offset) else {
            return Err(SnapshotError::Truncated);
        };
        let payload_start = offset + 8;
        spans.push(payload_start..payload_start + frame.payload.len());
        offset = frame.next_offset;
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::DetectorBuilder;
    use crate::features::FeatureSet;
    use crate::fleet::StreamHealthConfig;
    use crate::suite::ClassifierKind;
    use hbmd_events::{FeatureVector, HpcEvent};
    use hbmd_malware::{AppClass, SampleId};
    use hbmd_perf::{DataRow, HpcDataset};

    fn features(level: f64) -> FeatureVector {
        FeatureVector::from_slice(&[level; HpcEvent::COUNT]).expect("full-width vector")
    }

    /// A tiny, perfectly separable dataset: benign rows sit at 1.0,
    /// malware rows at 100.0 on every feature.
    fn synthetic_dataset() -> HpcDataset {
        let mut rows = Vec::new();
        for i in 0..40 {
            let class = AppClass::ALL[i % AppClass::COUNT];
            let level = if class == AppClass::Benign {
                1.0
            } else {
                100.0
            };
            rows.push(DataRow {
                sample: SampleId(i as u32),
                class,
                features: features(level),
            });
        }
        HpcDataset::from_rows(rows)
    }

    fn trained_detector() -> Detector {
        DetectorBuilder::new()
            .classifier(ClassifierKind::J48)
            .feature_set(FeatureSet::Full16)
            .train_binary(&synthetic_dataset())
            .expect("train on separable data")
    }

    fn fleet_sections(n: u64) -> Vec<StreamSection> {
        let detector = trained_detector();
        (0..n)
            .map(|stream| {
                let mut state = StreamState::new(4, 3, 2, 2).expect("valid shape");
                let mut health = StreamHealth::new(StreamHealthConfig::default());
                // Warm each stream differently so sections differ.
                for i in 0..(stream % 7) {
                    let level = if i % 2 == 0 { 1.0 } else { 100.0 };
                    state.observe(&detector, &features(level));
                    health.record(i % 3 == 0);
                }
                StreamSection {
                    stream,
                    cursor: stream * 11,
                    state,
                    health,
                }
            })
            .collect()
    }

    #[test]
    fn fleet_roundtrip_restores_every_stream() {
        let detector = trained_detector();
        let sections = fleet_sections(9);
        let bytes = encode_fleet(&detector, 4, 0xFEED, &sections);
        let back = decode_fleet(&bytes, 0xFEED).expect("decode own encoding");
        assert_eq!(back.shards, 4);
        assert_eq!(back.lost_sections, 0);
        assert_eq!(back.streams.len(), 9);
        for (restored, original) in back.streams.iter().zip(&sections) {
            assert_eq!(restored.stream, original.stream);
            assert_eq!(restored.cursor, original.cursor);
            assert_eq!(restored.health, original.health);
        }
        // Byte-identity: re-encoding the restore reproduces the file.
        assert_eq!(
            encode_fleet(
                &back.detector,
                back.shards,
                back.config_digest,
                &back.streams
            ),
            bytes
        );
    }

    #[test]
    fn corrupt_stream_section_falls_back_alone() {
        let detector = trained_detector();
        let sections = fleet_sections(5);
        let mut bytes = encode_fleet(&detector, 2, 0xFEED, &sections);
        let spans = fleet_stream_section_spans(&bytes).expect("walk framing");
        assert_eq!(spans.len(), 5);
        // Flip one byte inside stream section 2's payload.
        let mid = spans[2].start + (spans[2].end - spans[2].start) / 2;
        bytes[mid] ^= 0xFF;
        let back = decode_fleet(&bytes, 0xFEED).expect("partial restore succeeds");
        assert_eq!(back.lost_sections, 1);
        let restored: Vec<u64> = back.streams.iter().map(|s| s.stream).collect();
        assert_eq!(restored, vec![0, 1, 3, 4], "only stream 2 falls back");
    }

    #[test]
    fn corrupt_header_or_detector_refuses_the_fleet() {
        let detector = trained_detector();
        let sections = fleet_sections(3);
        let bytes = encode_fleet(&detector, 2, 0xFEED, &sections);

        // Header corruption (shard count byte) is caught wholesale.
        let mut evil = bytes.clone();
        evil[20] ^= 0x01;
        assert!(decode_fleet(&evil, 0xFEED).is_err());

        // Detector payload corruption is caught wholesale.
        let mut evil = bytes.clone();
        evil[FLEET_HEADER_LEN + 8] ^= 0x01;
        assert!(matches!(
            decode_fleet(&evil, 0xFEED),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        // Wrong digest and truncation are refused.
        assert!(matches!(
            decode_fleet(&bytes, 0xBEEF),
            Err(SnapshotError::ConfigMismatch { .. })
        ));
        assert!(decode_fleet(&bytes[..FLEET_HEADER_LEN + 4], 0xFEED).is_err());
    }

    #[test]
    fn version_mismatch_is_refused() {
        let detector = trained_detector();
        let mut bytes = encode_fleet(&detector, 2, 0xFEED, &fleet_sections(2));
        // Rewrite the version field and re-stamp the header checksum so
        // only the version check can fire.
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let checksum = fnv1a_64(&bytes[FLEET_MAGIC.len()..32]);
        bytes[32..40].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            decode_fleet(&bytes, 0xFEED),
            Err(SnapshotError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn corrupt_length_field_loses_the_tail_not_the_head() {
        let detector = trained_detector();
        let sections = fleet_sections(4);
        let mut bytes = encode_fleet(&detector, 2, 0xFEED, &sections);
        let spans = fleet_stream_section_spans(&bytes).expect("walk framing");
        // Wreck section 1's length field (the 8 bytes before its payload):
        // framing beyond it is untrustworthy, so streams 1..4 fall back
        // while stream 0 survives.
        let len_at = spans[1].start - 8;
        bytes[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let back = decode_fleet(&bytes, 0xFEED).expect("head survives");
        assert_eq!(back.lost_sections, 3);
        assert_eq!(back.streams.len(), 1);
        assert_eq!(back.streams[0].stream, 0);
    }

    #[test]
    fn fleet_save_load_is_atomic() {
        let dir = std::env::temp_dir().join(format!("hbmd-fleet-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("fleet.snap");
        let detector = trained_detector();
        let sections = fleet_sections(6);
        save_fleet(&detector, 3, 0x77, &sections, &path).expect("save");
        assert!(!dir.join("fleet.snap.tmp").exists());
        let back = load_fleet(&path, 0x77).expect("load");
        assert_eq!(back.streams.len(), 6);
        assert_eq!(back.lost_sections, 0);

        // Every restored stream continues its verdict stream exactly as
        // the original would have.
        for (restored, original) in back.streams.iter().zip(&sections) {
            let (mut restored, mut original) = (restored.state.clone(), original.state.clone());
            for level in [100.0, 100.0, 100.0, 1.0, 1.0, 1.0, 1.0] {
                assert_eq!(
                    restored.observe(&back.detector, &features(level)),
                    original.observe(&detector, &features(level))
                );
            }
        }

        // A corrupted file on disk is refused by load.
        let mut on_disk = std::fs::read(&path).expect("read back");
        on_disk[FLEET_HEADER_LEN + 8] ^= 0xFF;
        std::fs::write(&path, &on_disk).expect("corrupt");
        assert!(load_fleet(&path, 0x77).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
