//! Garbage in, an error out: the two text formats a tenant or an operator
//! hands the monitor — a Click configuration and a route map file — parsed
//! from token soup and from arbitrary bytes, and the pcap trace files the
//! main-memory adapter loads, read from garbage, truncated, byte-swapped and
//! mangled files. No parser may panic (or, as `Tee(4000000000)` once did,
//! abort on an allocation the input sized); each returns `Ok` or its own
//! error type, a Click graph that compiles runs a frame to a fate, and a
//! pcap file gives back the frames written to it. (lvrmd's directive parser
//! has the same property in the daemon's own test module.)

use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use lvrm_click::{parse_config, ConfigError, ElementGraph, PacketFate};
use lvrm_net::{read_pcap, write_pcap, Frame, FrameBuilder};
use lvrm_router::{parse_map_file, MapFileError};
use proptest::prelude::*;

/// `|`-separated: twelve well-formed endpoints, then the Click grammar's own
/// vocabulary and the values parsers trip on.
const CLICK_TOKENS: &str = "FromDevice(0)|ToDevice(1)|Counter|Discard|CheckIPHeader|DecIPTTL|\
    Queue|Tee(2)|Classifier(ip proto udp, -)|LookupIPRoute(10.0.2.0/24 1, 0.0.0.0/0 0)|\
    CheckLength(100)|SetIPTTL(9)|FromDevice|ToDevice|Tee|Classifier|LookupIPRoute|Teleport|a|b|\
    a :: |b :: |::|->|->|;|;|,|(|)|[|]|[0]|[1]|[65536]|[-1]|//|/*|*/|\n|0|64|65|4000000000|\
    18446744073709551615|340282366920938463463374607431768211456|-1|-|ip proto tcp|\
    10.0.2.0/24 1|10.0.2.0/33 1|10.0.2.0/24 70000|999.0.0.0/8 0|\0|é|→";

/// `|`-separated: four well-formed lines, then their pieces and the values
/// that break them.
const MAP_TOKENS: &str = "10.0.2.0/24 1\n|10.0.3.0/24 1 10.0.2.254\n|0.0.0.0/0 0\n|\
    # campus backbone\n|10.0.2.0/24|0.0.0.0/0|10.0.2.0/33|999.0.0.0/8|10.0.2.0|10.0.2.254|/|/24|\
    0|1|65535|65536|-1|18446744073709551616|#|\n|\n|\r\n|\t|\0|é|→";

/// Text for a parser: a soup of `tokens` — run together, spaced, or joined
/// by `glue` the way the grammar joins them; half the time drawn from the
/// first `well_formed` tokens only, so that some of it parses — or arbitrary
/// bytes decoded lossily.
fn garbage(
    tokens: &'static str,
    well_formed: usize,
    glue: &'static str,
) -> impl Strategy<Value = String> {
    let tokens: Vec<&str> = tokens.split('|').collect();
    let soup = (prop::collection::vec(0..tokens.len(), 0..16), 0usize..4, any::<bool>()).prop_map(
        move |(picks, sep, clean)| {
            let pool = if clean { &tokens[..well_formed] } else { &tokens[..] };
            let sep = ["", " ", glue, glue][sep];
            picks.iter().map(|&i| pool[i % pool.len()]).collect::<Vec<_>>().join(sep)
        },
    );
    let bytes = prop::collection::vec(any::<u8>(), 0..96)
        .prop_map(|raw| String::from_utf8_lossy(&raw).into_owned());
    prop_oneof![2 => soup, 1 => bytes]
}

/// Bytes on disk in the temp dir, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn with(bytes: &[u8]) -> TempFile {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir()
            .join(format!("lvrm-parser-garbage-{}-{n}.pcap", std::process::id()));
        std::fs::write(&path, bytes).expect("temp file written");
        TempFile(path)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// Frames as a pcap file can keep them: any bytes, stamped to the
/// microsecond within the 32-bit seconds of the format.
fn frames() -> impl Strategy<Value = Vec<Frame>> {
    let frame = (any::<u32>(), 0u64..1_000_000, prop::collection::vec(any::<u8>(), 0..160))
        .prop_map(|(sec, usec, bytes)| {
            let mut f = Frame::new(&bytes);
            f.ts_ns = u64::from(sec) * 1_000_000_000 + usec * 1_000;
            f
        });
    prop::collection::vec(frame, 0..6)
}

/// The bytes `write_pcap` puts on disk for `frames`.
fn pcap_of(frames: &[Frame]) -> Vec<u8> {
    let file = TempFile::with(&[]);
    write_pcap(&file.0, frames).expect("pcap written");
    std::fs::read(&file.0).expect("pcap read back")
}

/// A well-formed little-endian capture with every header field's bytes
/// reversed: the same capture as a big-endian host writes it.
fn byte_swapped(file: &[u8]) -> Vec<u8> {
    let mut out = file.to_vec();
    for field in [0..4, 4..6, 6..8, 8..12, 12..16, 16..20, 20..24] {
        out[field].reverse();
    }
    let mut at = 24;
    while at < out.len() {
        let caplen = u32::from_le_bytes(out[at + 8..at + 12].try_into().unwrap()) as usize;
        for field in out[at..at + 16].chunks_exact_mut(4) {
            field.reverse();
        }
        at += 16 + caplen;
    }
    out
}

/// Files `read_pcap` has to refuse or read around: arbitrary bytes, a
/// header of either byte order followed by arbitrary bytes, and a real
/// capture of either byte order with bytes overwritten anywhere — a record
/// length among them.
fn hostile_pcap() -> impl Strategy<Value = Vec<u8>> {
    let raw = prop::collection::vec(any::<u8>(), 0..96);
    let header_then_garbage =
        (any::<bool>(), prop::collection::vec(any::<u8>(), 0..96)).prop_map(|(swap, tail)| {
            let header = pcap_of(&[]);
            let mut file = if swap { byte_swapped(&header) } else { header };
            file.extend(tail);
            file
        });
    let mangled =
        (frames(), any::<bool>(), prop::collection::vec((any::<usize>(), any::<u8>()), 1..6))
            .prop_map(|(frames, swap, hits)| {
                let file = pcap_of(&frames);
                let mut file = if swap { byte_swapped(&file) } else { file };
                for (at, byte) in hits {
                    let n = file.len();
                    file[at % n] = byte;
                }
                file
            });
    prop_oneof![raw, header_then_garbage, mangled]
}

fn same_frames(a: &[Frame], b: &[Frame]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(a, b)| a.bytes() == b.bytes() && a.ts_ns == b.ts_ns)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 16 } else { 2048 }))]

    /// Parse, compile and — when that succeeds — run one frame.
    #[test]
    fn click_config_never_panics(text in garbage(CLICK_TOKENS, 12, " -> ")) {
        let graph: Result<ElementGraph, ConfigError> =
            parse_config(&text).and_then(|ast| ElementGraph::compile(&ast));
        if let Ok(mut graph) = graph {
            let mut frame =
                FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 0, 2, 9))
                    .udp(1, 2, &[]);
            match graph.run(&mut frame) {
                PacketFate::Forwarded { .. } | PacketFate::Dropped => {}
            }
        }
    }

    #[test]
    fn map_file_never_panics(text in garbage(MAP_TOKENS, 4, " ")) {
        let table: Result<_, MapFileError> = parse_map_file(&text);
        if let Ok(table) = table {
            // Every route it kept is one a line of the text spelled out.
            prop_assert!(table.len() <= text.lines().count());
        }
    }

    /// Whatever a file holds, the reader answers; every frame it returns
    /// had a 16-byte record header and fits the format's record bound.
    #[test]
    fn pcap_file_never_panics(bytes in hostile_pcap()) {
        let file = TempFile::with(&bytes);
        if let Ok(frames) = read_pcap(&file.0) {
            prop_assert!(frames.len() <= bytes.len().saturating_sub(24) / 16);
            prop_assert!(frames.iter().all(|f| f.len() <= 64 * 1024));
        }
    }

    /// What `write_pcap` writes, `read_pcap` reads back — bytes and stamps,
    /// in either byte order — and a file cut short anywhere past its header
    /// reads as the records it still holds whole.
    #[test]
    fn pcap_round_trips_and_truncates_to_a_prefix(
        frames in frames(),
        swap in any::<bool>(),
        cut in any::<usize>(),
    ) {
        let file = pcap_of(&frames);
        let file = if swap { byte_swapped(&file) } else { file };
        let whole = TempFile::with(&file);
        prop_assert!(same_frames(&read_pcap(&whole.0).expect("a written file reads"), &frames));
        let cut = cut % (file.len() + 1);
        let short = TempFile::with(&file[..cut]);
        match read_pcap(&short.0) {
            Ok(read) if cut >= 24 => {
                let mut end = 24;
                let whole_records = frames
                    .iter()
                    .take_while(|f| {
                        end += 16 + f.len();
                        end <= cut
                    })
                    .count();
                prop_assert!(same_frames(&read, &frames[..whole_records]), "cut at {cut}");
            }
            Ok(_) => prop_assert!(false, "a {cut}-byte header read"),
            Err(e) => prop_assert!(cut < 24, "cut at {cut}: {e}"),
        }
    }
}
