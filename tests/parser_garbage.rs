//! Garbage in, an error out: the two text formats a tenant or an operator
//! hands the monitor — a Click configuration and a route map file — parsed
//! from token soup and from arbitrary bytes. Neither parser may panic (or,
//! as `Tee(4000000000)` once did, abort on an allocation the text sized);
//! each returns `Ok` or its own error type, and a Click graph that compiles
//! runs a frame to a fate.

use std::net::Ipv4Addr;

use lvrm_click::{parse_config, ConfigError, ElementGraph, PacketFate};
use lvrm_net::FrameBuilder;
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
}
