//! The JSON parser over the five committed artifact stores: each file
//! survives a render → parse round trip, and seeded truncations and
//! single-character substitutions of it return `Ok` or `Err`, never panic.

use fblas_metrics::json::Json;

const STORES: [&str; 5] = [
    "BENCH_0001.json",
    "TELEM_0001.json",
    "SERVE_0001.json",
    "SCALE_0001.json",
    "FAULTS.json",
];

/// Characters a substitution writes: the two that open or end an escape,
/// multi-byte UTF-8 of every width, structure and digits.
const SUBSTITUTES: [char; 12] = [
    '"', '\\', 'é', '中', '🙂', '{', '}', '[', ':', ',', '0', 'u',
];

fn store(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// xorshift64: a fixed seed makes every run check the same documents.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn committed_stores_round_trip_through_render() {
    for name in STORES {
        let parsed = Json::parse(&store(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(Json::parse(&parsed.render()), Ok(parsed), "{name}");
    }
}

#[test]
fn mutated_stores_parse_or_fail_without_panicking() {
    let mut state = 0x5EED_0F57_0BE5;
    for name in STORES {
        let text = store(name);
        let chars: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
        let pick = |state: &mut u64| chars[(next(state) % chars.len() as u64) as usize];
        let (mut ok, mut err) = (0, 0);
        for _ in 0..60 {
            let cut = pick(&mut state);
            match Json::parse(&text[..cut]) {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
        }
        for _ in 0..120 {
            let at = pick(&mut state);
            let width = text[at..].chars().next().map_or(0, char::len_utf8);
            let with = SUBSTITUTES[(next(&mut state) % SUBSTITUTES.len() as u64) as usize];
            let mutated = format!("{}{with}{}", &text[..at], &text[at + width..]);
            match Json::parse(&mutated) {
                Ok(_) => ok += 1,
                Err(e) => {
                    assert!(e.offset <= mutated.len(), "{name}: {e}");
                    err += 1;
                }
            }
        }
        // Every truncation short of the whole document is an error, so the
        // sweep cannot pass by accepting everything.
        assert!(err >= 60, "{name}: {ok} ok, {err} err");
    }
}
