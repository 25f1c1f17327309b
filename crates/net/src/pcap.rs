//! Classic pcap (libpcap 2.4) trace files.
//!
//! The paper's main-memory socket adapter loads "a trace file of raw frames
//! into main memory" (§3.1). This module reads and writes the classic pcap
//! container so traces can be real files: synthetic workloads can be saved,
//! inspected with standard tools, and replayed through [`crate::Trace`].
//!
//! Scope: the classic fixed-header format only (magic `0xa1b2c3d4`,
//! microsecond timestamps, both endiannesses on read), LINKTYPE_ETHERNET.
//! pcapng is out of scope.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::frame::Frame;

const MAGIC: u32 = 0xa1b2c3d4;
const MAGIC_SWAPPED: u32 = 0xd4c3b2a1;
const LINKTYPE_ETHERNET: u32 = 1;

/// Errors from pcap parsing.
#[derive(Debug)]
pub enum PcapError {
    Io(io::Error),
    /// Not a classic pcap file.
    BadMagic(u32),
    /// Unsupported link type (only Ethernet is accepted).
    BadLinkType(u32),
    /// A record header describes an impossible length.
    BadRecord {
        declared: u32,
    },
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "pcap i/o error: {e}"),
            PcapError::BadMagic(m) => write!(f, "not a classic pcap file (magic {m:#010x})"),
            PcapError::BadLinkType(t) => write!(f, "unsupported pcap link type {t}"),
            PcapError::BadRecord { declared } => {
                write!(f, "pcap record declares impossible length {declared}")
            }
        }
    }
}

impl std::error::Error for PcapError {}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

/// Maximum frame we will accept from a file (jumbo + slack).
const MAX_RECORD: u32 = 64 * 1024;

fn u32_at(b: &[u8], off: usize, swap: bool) -> u32 {
    let raw = [b[off], b[off + 1], b[off + 2], b[off + 3]];
    if swap {
        u32::from_be_bytes(raw)
    } else {
        u32::from_le_bytes(raw)
    }
}

/// Write `frames` to `path` as a classic pcap file. Frame timestamps come
/// from `Frame::ts_ns`.
pub fn write_pcap(path: &Path, frames: &[Frame]) -> Result<(), PcapError> {
    let mut w = BufWriter::new(File::create(path)?);
    // Global header: magic, version 2.4, tz 0, sigfigs 0, snaplen, linktype.
    w.write_all(&MAGIC.to_le_bytes())?;
    w.write_all(&2u16.to_le_bytes())?;
    w.write_all(&4u16.to_le_bytes())?;
    w.write_all(&0i32.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?;
    w.write_all(&MAX_RECORD.to_le_bytes())?;
    w.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
    for f in frames {
        let ts_sec = (f.ts_ns / 1_000_000_000) as u32;
        let ts_usec = ((f.ts_ns % 1_000_000_000) / 1_000) as u32;
        let len = f.len() as u32;
        w.write_all(&ts_sec.to_le_bytes())?;
        w.write_all(&ts_usec.to_le_bytes())?;
        w.write_all(&len.to_le_bytes())?; // captured
        w.write_all(&len.to_le_bytes())?; // original
        w.write_all(f.bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Read every frame of a classic pcap file. Truncated trailing records are
/// tolerated (common in live captures); anything else malformed errors.
pub fn read_pcap(path: &Path) -> Result<Vec<Frame>, PcapError> {
    let mut r = BufReader::new(File::open(path)?);
    let mut hdr = [0u8; 24];
    r.read_exact(&mut hdr)?;
    let magic_le = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
    let swap = match magic_le {
        MAGIC => false,
        MAGIC_SWAPPED => true,
        other => return Err(PcapError::BadMagic(other)),
    };
    let linktype = u32_at(&hdr, 20, swap);
    if linktype != LINKTYPE_ETHERNET {
        return Err(PcapError::BadLinkType(linktype));
    }
    let mut frames = Vec::new();
    loop {
        let mut rec = [0u8; 16];
        match r.read_exact(&mut rec) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        }
        let ts_sec = u32_at(&rec, 0, swap) as u64;
        let ts_usec = u32_at(&rec, 4, swap) as u64;
        let caplen = u32_at(&rec, 8, swap);
        if caplen > MAX_RECORD {
            return Err(PcapError::BadRecord { declared: caplen });
        }
        let mut data = vec![0u8; caplen as usize];
        match r.read_exact(&mut data) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break, // truncated tail
            Err(e) => return Err(e.into()),
        }
        let mut f = Frame::new(&data);
        f.ts_ns = ts_sec * 1_000_000_000 + ts_usec * 1_000;
        frames.push(f);
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Trace, TraceSpec};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("lvrm-pcap-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_preserves_frames_and_stamps() {
        let mut trace = Trace::generate(&TraceSpec::new(84, 8));
        let mut frames = Vec::new();
        for i in 0..32u64 {
            let mut f = trace.next_frame();
            f.ts_ns = 1_000_000_000 + i * 10_000; // microsecond-aligned
            frames.push(f);
        }
        let path = tmp("roundtrip");
        write_pcap(&path, &frames).unwrap();
        let back = read_pcap(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.len(), frames.len());
        for (a, b) in frames.iter().zip(&back) {
            assert_eq!(a.bytes(), b.bytes());
            assert_eq!(a.ts_ns, b.ts_ns);
        }
    }

    #[test]
    fn rejects_garbage_files() {
        let path = tmp("garbage");
        std::fs::write(&path, b"this is not a pcap file at all........").unwrap();
        let err = read_pcap(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, PcapError::BadMagic(_)));
    }

    #[test]
    fn rejects_wrong_linktype() {
        let path = tmp("linktype");
        let mut hdr = Vec::new();
        hdr.extend_from_slice(&MAGIC.to_le_bytes());
        hdr.extend_from_slice(&2u16.to_le_bytes());
        hdr.extend_from_slice(&4u16.to_le_bytes());
        hdr.extend_from_slice(&[0u8; 12]); // tz + sigfigs + snaplen
        hdr.extend_from_slice(&101u32.to_le_bytes()); // LINKTYPE_RAW
        std::fs::write(&path, &hdr).unwrap();
        let err = read_pcap(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, PcapError::BadLinkType(101)));
    }

    #[test]
    fn tolerates_truncated_tail_record() {
        let mut trace = Trace::generate(&TraceSpec::new(84, 2));
        let frames = vec![trace.next_frame(), trace.next_frame()];
        let path = tmp("truncated");
        write_pcap(&path, &frames).unwrap();
        // Chop the last 10 bytes off.
        let mut data = std::fs::read(&path).unwrap();
        data.truncate(data.len() - 10);
        std::fs::write(&path, &data).unwrap();
        let back = read_pcap(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.len(), 1, "whole first record survives, partial tail skipped");
    }

    #[test]
    fn bounds_absurd_record_lengths() {
        let path = tmp("absurd");
        let mut data = Vec::new();
        data.extend_from_slice(&MAGIC.to_le_bytes());
        data.extend_from_slice(&2u16.to_le_bytes());
        data.extend_from_slice(&4u16.to_le_bytes());
        data.extend_from_slice(&[0u8; 8]);
        data.extend_from_slice(&MAX_RECORD.to_le_bytes());
        data.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        // One record claiming 2 GB.
        data.extend_from_slice(&[0u8; 8]);
        data.extend_from_slice(&(2_000_000_000u32).to_le_bytes());
        data.extend_from_slice(&(2_000_000_000u32).to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        let err = read_pcap(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, PcapError::BadRecord { .. }));
    }
}
