//! SPICE-deck export and (subset) import.
//!
//! [`write_deck`] renders a [`Network`] as a SPICE deck so any external
//! simulator (HSPICE, ngspice, Xyce) can be used to cross-check the golden
//! waveforms produced by `xtalk-sim`. [`parse_deck`] reads the exported
//! subset back, round-tripping the full network structure — handy for
//! archiving generated sweep cases as plain text.
//!
//! The exported deck uses structured comments (`*!` directives) to carry
//! net roles and the victim observation node, which plain SPICE has no
//! syntax for. Element cards use standard `R`/`C`/`V` syntax with SI
//! suffixes accepted on input (`15f`, `0.2p`, `1k`, `2meg`, …).
//!
//! The parser is hardened for untrusted input (the `xtalk serve` daemon
//! feeds it client-submitted decks): every token-level error carries the
//! 1-based line *and column* of the offending token, and
//! [`parse_deck_with_limits`] bounds line, net, and element counts so an
//! absurd deck is rejected with [`SpiceParseError::TooLarge`] instead of
//! ballooning memory.
//!
//! Since the full-chip screening work the parser is implemented on top
//! of the incremental reader in [`stream`]: `parse_deck` is exactly
//! [`stream::DeckIndex::from_reader`] over the in-memory string followed
//! by whole-deck materialization. SPICE `+` continuation lines are
//! joined transparently (errors keep pointing at the physical line), and
//! [`stream::StreamOptions::lenient`] optionally downgrades
//! unknown-but-benign `.`-directives (`.GLOBAL`, `.TEMP`, `.SUBCKT`, …)
//! from hard errors to counted skips for real extracted decks.
//!
//! # Examples
//!
//! ```
//! use xtalk_circuit::{spice, NetRole, NetworkBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetworkBuilder::new();
//! let v = b.add_net("vic", NetRole::Victim);
//! let a = b.add_net("agg", NetRole::Aggressor);
//! let v0 = b.add_node(v, "v0");
//! let a0 = b.add_node(a, "a0");
//! b.add_driver(v, v0, 120.0)?;
//! b.add_driver(a, a0, 80.0)?;
//! b.add_sink(v0, 10e-15)?;
//! b.add_sink(a0, 12e-15)?;
//! b.add_coupling_cap(v0, a0, 30e-15)?;
//! let network = b.build()?;
//!
//! let deck = spice::write_deck(&network);
//! let round_trip = spice::parse_deck(&deck)?;
//! assert_eq!(round_trip.node_count(), network.node_count());
//! assert_eq!(round_trip.coupling_caps(), network.coupling_caps());
//! # Ok(())
//! # }
//! ```

use crate::{CircuitError, NetRole, Network};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

pub mod stream;

/// Errors raised by [`parse_deck`]. Every token-level variant carries the
/// 1-based line and column of the offending token; errors detected after
/// the line scan (missing drivers, unreachable nodes) point back at the
/// declaration or card that caused them.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpiceParseError {
    /// A card had too few fields or a malformed name.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// 1-based column of the offending token.
        col: usize,
        /// What went wrong.
        detail: String,
    },
    /// A numeric field (possibly with an SI suffix) did not parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// 1-based column of the offending token.
        col: usize,
        /// The offending token.
        token: String,
    },
    /// A numeric field parsed but is NaN or infinite — either a literal
    /// (`nan`, `inf`) or an SI-suffix overflow (`1e308k`).
    NonFiniteValue {
        /// 1-based line number.
        line: usize,
        /// 1-based column of the offending token.
        col: usize,
        /// The offending token.
        token: String,
    },
    /// An element value violates its sign constraint: resistances and
    /// capacitances must be positive; sink loads must be non-negative.
    NonPositiveValue {
        /// 1-based line number.
        line: usize,
        /// 1-based column of the offending token.
        col: usize,
        /// The offending token.
        token: String,
    },
    /// Something was defined twice: a net's driver card, a node claimed
    /// by the drivers of two different nets, or the output directive.
    DuplicateDefinition {
        /// 1-based line number of the *second* definition.
        line: usize,
        /// 1-based column of the redefining token.
        col: usize,
        /// What was redefined.
        what: String,
    },
    /// The deck exceeds a [`DeckLimits`] bound.
    TooLarge {
        /// 1-based line number where the limit was crossed.
        line: usize,
        /// Which limit (`"lines"`, `"nets"`, `"elements"`).
        what: &'static str,
        /// The configured bound.
        limit: usize,
    },
    /// The deck parsed but did not describe a valid network.
    Invalid(CircuitError),
    /// The underlying reader failed while streaming the deck (only
    /// possible through [`stream`]; in-memory parses never see it).
    Io(String),
}

impl SpiceParseError {
    /// The `(line, column)` of the offending token, 1-based. `None` only
    /// for [`SpiceParseError::Invalid`] and [`SpiceParseError::Io`],
    /// which describe the deck (or its transport) as a whole rather than
    /// any one token.
    #[must_use]
    pub fn position(&self) -> Option<(usize, usize)> {
        match self {
            SpiceParseError::Malformed { line, col, .. }
            | SpiceParseError::BadNumber { line, col, .. }
            | SpiceParseError::NonFiniteValue { line, col, .. }
            | SpiceParseError::NonPositiveValue { line, col, .. }
            | SpiceParseError::DuplicateDefinition { line, col, .. } => Some((*line, *col)),
            SpiceParseError::TooLarge { line, .. } => Some((*line, 1)),
            SpiceParseError::Invalid(_) | SpiceParseError::Io(_) => None,
        }
    }
}

impl fmt::Display for SpiceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiceParseError::Malformed { line, col, detail } => {
                write!(f, "malformed card on line {line}:{col}: {detail}")
            }
            SpiceParseError::BadNumber { line, col, token } => {
                write!(f, "bad numeric value {token:?} on line {line}:{col}")
            }
            SpiceParseError::NonFiniteValue { line, col, token } => {
                write!(f, "non-finite value {token:?} on line {line}:{col}")
            }
            SpiceParseError::NonPositiveValue { line, col, token } => {
                write!(f, "non-positive element value {token:?} on line {line}:{col}")
            }
            SpiceParseError::DuplicateDefinition { line, col, what } => {
                write!(f, "duplicate definition of {what} on line {line}:{col}")
            }
            SpiceParseError::TooLarge { line, what, limit } => {
                write!(f, "deck too large at line {line}: more than {limit} {what}")
            }
            SpiceParseError::Invalid(e) => write!(f, "deck describes an invalid network: {e}"),
            SpiceParseError::Io(e) => write!(f, "deck read failed: {e}"),
        }
    }
}

impl Error for SpiceParseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SpiceParseError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CircuitError> for SpiceParseError {
    fn from(e: CircuitError) -> Self {
        SpiceParseError::Invalid(e)
    }
}

/// Size bounds for [`parse_deck_with_limits`]. The defaults are far above
/// anything the sweep generators emit but low enough that a hostile deck
/// cannot balloon memory; services facing untrusted clients should
/// tighten them to their own request budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeckLimits {
    /// Maximum number of lines scanned.
    pub max_lines: usize,
    /// Maximum number of `*! net` declarations.
    pub max_nets: usize,
    /// Maximum total element cards (drivers, resistors, capacitors).
    pub max_elements: usize,
}

impl Default for DeckLimits {
    fn default() -> Self {
        DeckLimits {
            max_lines: 1_000_000,
            max_nets: 10_000,
            max_elements: 500_000,
        }
    }
}

/// Renders `network` as a SPICE deck string.
///
/// Aggressor sources are emitted as `DC 0` placeholders — the intended use
/// is to append analysis and stimulus cards for the external simulator; the
/// structural cards are the authoritative content.
pub fn write_deck(network: &Network) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "* coupled RC network exported by xtalk-circuit");
    for (id, net) in network.nets() {
        let role = match net.role() {
            NetRole::Victim => "victim",
            NetRole::Aggressor => "aggressor",
        };
        let _ = writeln!(out, "*! net {} {} {}", id.index(), role, net.name());
    }
    let _ = writeln!(
        out,
        "*! output n{}",
        network.victim_output().index()
    );

    for (id, net) in network.nets() {
        let i = id.index();
        let d = net.driver();
        let _ = writeln!(out, "VDRV{i} src{i} 0 DC 0");
        let _ = writeln!(
            out,
            "RDRV{i} src{i} n{} {:e}",
            d.node.index(),
            d.ohms
        );
    }
    for (k, r) in network.resistors().iter().enumerate() {
        let _ = writeln!(
            out,
            "R{k} n{} n{} {:e}",
            r.a.index(),
            r.b.index(),
            r.ohms
        );
    }
    for (k, c) in network.ground_caps().iter().enumerate() {
        let _ = writeln!(out, "C{k} n{} 0 {:e}", c.node.index(), c.farads);
    }
    let mut sink_idx = 0usize;
    for (_, net) in network.nets() {
        for s in net.sinks() {
            let _ = writeln!(out, "CL{sink_idx} n{} 0 {:e}", s.node.index(), s.farads);
            sink_idx += 1;
        }
    }
    for (k, cc) in network.coupling_caps().iter().enumerate() {
        let _ = writeln!(
            out,
            "CC{k} n{} n{} {:e}",
            cc.a.index(),
            cc.b.index(),
            cc.farads
        );
    }
    let _ = writeln!(out, ".end");
    out
}

/// One whitespace-delimited token of a line: its 1-based character
/// column and its byte range in the line.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    pub(crate) col: usize,
    pub(crate) start: usize,
    pub(crate) end: usize,
}

/// Splits `raw` into tokens separated by whitespace (as
/// [`char::is_whitespace`] defines it), appending their spans to `out`.
///
/// One pass over the bytes: an ASCII byte is classified as it stands (its
/// whitespace is tab, LF, VT, FF, CR and space), and a `char` is decoded
/// only where a non-ASCII byte starts one, so columns count characters.
pub(crate) fn tokenize(raw: &str, out: &mut Vec<Span>) {
    let bytes = raw.as_bytes();
    // Whether the char starting at byte `i` is whitespace, and its length.
    let char_at = |i: usize| -> (bool, usize) {
        if bytes[i].is_ascii() {
            (matches!(bytes[i], b'\t'..=b'\r' | b' '), 1)
        } else {
            let ch = raw[i..].chars().next().expect("i is a char boundary");
            (ch.is_whitespace(), ch.len_utf8())
        }
    };
    // `i` is always a char boundary and `col` the number of chars before it.
    let (mut i, mut col) = (0usize, 0usize);
    while i < bytes.len() {
        let (space, mut len) = char_at(i);
        if space {
            i += len;
            col += 1;
            continue;
        }
        let (start, start_col) = (i, col + 1);
        loop {
            i += len;
            col += 1;
            if i == bytes.len() {
                break;
            }
            let (space, next) = char_at(i);
            if space {
                break;
            }
            len = next;
        }
        out.push(Span {
            col: start_col,
            start,
            end: i,
        });
    }
}

/// Parses a deck previously produced by [`write_deck`], with
/// [`DeckLimits::default`] size bounds.
///
/// # Errors
///
/// Returns [`SpiceParseError`] on malformed cards, unparseable numbers, or
/// when the described structure fails [`crate::NetworkBuilder::build`] validation.
pub fn parse_deck(deck: &str) -> Result<Network, SpiceParseError> {
    parse_deck_with_limits(deck, &DeckLimits::default())
}

/// [`parse_deck`] with caller-chosen size bounds — the entry point for
/// services parsing untrusted decks.
///
/// # Errors
///
/// As [`parse_deck`], plus [`SpiceParseError::TooLarge`] when the deck
/// exceeds `limits`.
pub fn parse_deck_with_limits(
    deck: &str,
    limits: &DeckLimits,
) -> Result<Network, SpiceParseError> {
    stream::DeckIndex::from_reader(
        deck.as_bytes(),
        stream::StreamOptions {
            limits: limits.clone(),
            lenient: false,
        },
    )?
    .into_network()
}

/// Parses a SPICE numeric token with optional SI suffix (`1.5k`, `10f`,
/// `2meg`, `3e-12`, case-insensitive). Returns `None` when unparseable.
///
/// # Examples
///
/// ```
/// use xtalk_circuit::spice::parse_si_value;
/// assert!((parse_si_value("15f").unwrap() - 15e-15).abs() < 1e-27);
/// assert_eq!(parse_si_value("2MEG"), Some(2e6));
/// assert_eq!(parse_si_value("1e-12"), Some(1e-12));
/// assert_eq!(parse_si_value("volts"), None);
/// ```
pub fn parse_si_value(token: &str) -> Option<f64> {
    let bytes = token.as_bytes();
    let has_suffix = |suffix: &[u8]| {
        bytes.len() >= suffix.len()
            && bytes[bytes.len() - suffix.len()..].eq_ignore_ascii_case(suffix)
    };
    // Every suffix is ASCII, so stripping one leaves a char boundary.
    let (digits, mult) = if has_suffix(b"meg") {
        (bytes.len() - 3, 1e6)
    } else if has_suffix(b"mil") {
        (bytes.len() - 3, 25.4e-6)
    } else {
        match bytes.last().map(u8::to_ascii_lowercase) {
            Some(b't') => (bytes.len() - 1, 1e12),
            Some(b'g') => (bytes.len() - 1, 1e9),
            Some(b'k') => (bytes.len() - 1, 1e3),
            Some(b'm') => (bytes.len() - 1, 1e-3),
            Some(b'u') => (bytes.len() - 1, 1e-6),
            Some(b'n') => (bytes.len() - 1, 1e-9),
            Some(b'p') => (bytes.len() - 1, 1e-12),
            Some(b'f') => (bytes.len() - 1, 1e-15),
            _ => (bytes.len(), 1.0),
        }
    };
    // `f64::from_str` reads `e`/`E`, `inf`, `infinity` and `nan` in any
    // case, so the number needs no lowercased copy.
    token[..digits].parse::<f64>().ok().map(|v| v * mult)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;

    fn sample_network() -> Network {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("vic", NetRole::Victim);
        let a = b.add_net("agg", NetRole::Aggressor);
        let v0 = b.add_node(v, "v0");
        let v1 = b.add_node(v, "v1");
        let v2 = b.add_node(v, "v2");
        let a0 = b.add_node(a, "a0");
        let a1 = b.add_node(a, "a1");
        b.add_driver(v, v0, 150.0).unwrap();
        b.add_driver(a, a0, 90.0).unwrap();
        b.add_resistor(v0, v1, 25.0).unwrap();
        b.add_resistor(v1, v2, 35.0).unwrap();
        b.add_resistor(a0, a1, 40.0).unwrap();
        b.add_ground_cap(v1, 8e-15).unwrap();
        b.add_ground_cap(a1, 6e-15).unwrap();
        b.add_sink(v2, 12e-15).unwrap();
        b.add_sink(a1, 10e-15).unwrap();
        b.add_coupling_cap(v1, a1, 22e-15).unwrap();
        b.add_coupling_cap(v2, a1, 11e-15).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn si_suffixes_parse() {
        assert_eq!(parse_si_value("1k"), Some(1e3));
        assert_eq!(parse_si_value("2.5p"), Some(2.5e-12));
        assert_eq!(parse_si_value("100"), Some(100.0));
        assert_eq!(parse_si_value("1meg"), Some(1e6));
        assert!((parse_si_value("3n").unwrap() - 3e-9).abs() < 1e-24);
        assert!((parse_si_value("4u").unwrap() - 4e-6).abs() < 1e-21);
        assert_eq!(parse_si_value("5m"), Some(5e-3));
        assert_eq!(parse_si_value("6g"), Some(6e9));
        assert_eq!(parse_si_value("7t"), Some(7e12));
        assert_eq!(parse_si_value(""), None);
        assert_eq!(parse_si_value("x1"), None);
    }

    /// Reference tokenizer (the allocating, `char`-at-a-time original):
    /// the oracle [`tokenize`] must agree with on every line.
    fn tokens_with_columns(raw: &str) -> Vec<(usize, &str)> {
        let mut out = Vec::new();
        let mut col = 0usize;
        let mut start: Option<(usize, usize)> = None; // (byte, col)
        for (byte, ch) in raw.char_indices() {
            col += 1;
            if ch.is_whitespace() {
                if let Some((sb, sc)) = start.take() {
                    out.push((sc, &raw[sb..byte]));
                }
            } else if start.is_none() {
                start = Some((byte, col));
            }
        }
        if let Some((sb, sc)) = start {
            out.push((sc, &raw[sb..]));
        }
        out
    }

    /// Reference SI parser (the original, which lowercases a copy): the
    /// oracle [`parse_si_value`] must agree with bit for bit.
    fn parse_si_value_reference(token: &str) -> Option<f64> {
        let lower = token.to_ascii_lowercase();
        let (num_part, mult) = if let Some(stripped) = lower.strip_suffix("meg") {
            (stripped, 1e6)
        } else if let Some(stripped) = lower.strip_suffix("mil") {
            (stripped, 25.4e-6)
        } else {
            match lower.as_bytes().last() {
                Some(b't') => (&lower[..lower.len() - 1], 1e12),
                Some(b'g') => (&lower[..lower.len() - 1], 1e9),
                Some(b'k') => (&lower[..lower.len() - 1], 1e3),
                Some(b'm') => (&lower[..lower.len() - 1], 1e-3),
                Some(b'u') => (&lower[..lower.len() - 1], 1e-6),
                Some(b'n') => (&lower[..lower.len() - 1], 1e-9),
                Some(b'p') => (&lower[..lower.len() - 1], 1e-12),
                Some(b'f') => (&lower[..lower.len() - 1], 1e-15),
                _ => (lower.as_str(), 1.0),
            }
        };
        num_part.parse::<f64>().ok().map(|v| v * mult)
    }

    /// [`tokenize`]'s spans as `(column, token)` pairs.
    fn tokens(raw: &str) -> Vec<(usize, &str)> {
        let mut spans = Vec::new();
        tokenize(raw, &mut spans);
        spans
            .iter()
            .map(|s| (s.col, &raw[s.start..s.end]))
            .collect()
    }

    #[test]
    fn tokenizer_reports_one_based_columns() {
        assert_eq!(
            tokens("  R1  n0 n1\t5"),
            vec![(3, "R1"), (7, "n0"), (10, "n1"), (13, "5")]
        );
        assert!(tokens("   ").is_empty());
        assert!(tokens("").is_empty());
        // Columns count characters: `µ` is two bytes, one column.
        assert_eq!(tokens("µ\u{3000}x"), vec![(1, "µ"), (3, "x")]);
    }

    /// Line fragments the tokenizer oracle mixes: every whitespace class
    /// that `char::is_whitespace` and `u8::is_ascii_whitespace` disagree
    /// or agree on, non-ASCII spaces, a multi-byte non-space, glued `+`
    /// continuation markers and ordinary card text.
    const LINE_PIECES: [&str; 22] = [
        " ", "\t", "\u{c}", "\r", "\u{b}", "\u{85}", "\u{a0}", "\u{2028}", "\u{3000}", "µ", "+",
        "+n0", "R1", "n", "0", "1.5k", "*!", ".end", "é", "\u{1c}", "\u{0}", "x",
    ];

    /// SI-value fragments: digits, signs, exponents, every suffix in
    /// both cases, and literals `f64::from_str` accepts.
    const SI_PIECES: [&str; 26] = [
        "0", "1", "5", "9", ".", "-", "+", "e", "E", "k", "K", "meg", "MEG", "Meg", "mil", "MIL",
        "m", "u", "n", "p", "F", "g", "T", "inf", "NaN", "µ",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        #[test]
        fn tokenizer_matches_the_char_oracle(
            picks in proptest::collection::vec(0usize..LINE_PIECES.len(), 0usize..24)
        ) {
            let line: String = picks.iter().map(|&i| LINE_PIECES[i]).collect();
            proptest::prop_assert_eq!(tokens(&line), tokens_with_columns(&line), "{:?}", line);
        }

        #[test]
        fn si_parser_matches_the_lowercasing_oracle(
            picks in proptest::collection::vec(0usize..SI_PIECES.len(), 0usize..6)
        ) {
            let token: String = picks.iter().map(|&i| SI_PIECES[i]).collect();
            proptest::prop_assert_eq!(
                parse_si_value(&token).map(f64::to_bits),
                parse_si_value_reference(&token).map(f64::to_bits),
                "{:?}", token
            );
        }
    }

    #[test]
    fn si_corpus_is_bit_identical_to_the_oracle() {
        for token in [
            "1E3",
            "Infinity",
            "-INFINITY",
            "NaN",
            "inf",
            "2MEG",
            "1Meg",
            "3Mil",
            "1e308k",
            ".5f",
            "5.",
            "-0",
            "1e",
            "",
            "1e-12",
            "15F",
            "0.2P",
            "4U",
            "7T",
            "6G",
            "1mil",
            "µ",
            "1µ",
            "meg",
            "k",
            "+5k",
            "1e999",
            "-1e308meg",
            "nan",
            "INF",
        ] {
            assert_eq!(
                parse_si_value(token).map(f64::to_bits),
                parse_si_value_reference(token).map(f64::to_bits),
                "{token:?}"
            );
        }
    }

    #[test]
    fn deck_contains_all_cards() {
        let deck = write_deck(&sample_network());
        assert!(deck.contains("*! net 0 victim vic"));
        assert!(deck.contains("*! net 1 aggressor agg"));
        assert!(deck.contains("RDRV0"));
        assert!(deck.contains("RDRV1"));
        assert!(deck.contains("CC0"));
        assert!(deck.contains("CC1"));
        assert!(deck.contains(".end"));
        // 3 wire resistors + 2 driver resistors
        assert_eq!(deck.lines().filter(|l| l.starts_with('R')).count(), 5);
    }

    #[test]
    fn round_trip_preserves_structure() {
        let original = sample_network();
        let deck = write_deck(&original);
        let parsed = parse_deck(&deck).unwrap();
        assert_eq!(parsed.node_count(), original.node_count());
        assert_eq!(parsed.net_count(), original.net_count());
        assert_eq!(parsed.resistors().len(), original.resistors().len());
        assert_eq!(parsed.ground_caps().len(), original.ground_caps().len());
        assert_eq!(
            parsed.coupling_caps().len(),
            original.coupling_caps().len()
        );
        // Totals are basis-independent even if node numbering changed.
        assert!(
            (parsed.net_total_cap(parsed.victim()) - original.net_total_cap(original.victim()))
                .abs()
                < 1e-27
        );
        assert!(
            (parsed.net_total_res(parsed.victim()) - original.net_total_res(original.victim()))
                .abs()
                < 1e-9
        );
        // Output node survives by name.
        assert_eq!(
            parsed.node_name(parsed.victim_output()),
            format!("n{}", original.victim_output().index())
        );
    }

    #[test]
    fn double_round_trip_is_stable() {
        let original = sample_network();
        let deck1 = write_deck(&original);
        let net1 = parse_deck(&deck1).unwrap();
        let deck2 = write_deck(&net1);
        let net2 = parse_deck(&deck2).unwrap();
        assert_eq!(net1.node_count(), net2.node_count());
        assert_eq!(net1.resistors().len(), net2.resistors().len());
    }

    #[test]
    fn malformed_cards_are_reported_with_line_numbers() {
        let bad = "*! net 0 victim v\nR1 n0\n";
        match parse_deck(bad) {
            Err(SpiceParseError::Malformed { line, col, .. }) => {
                assert_eq!((line, col), (2, 1));
            }
            other => panic!("expected malformed error, got {other:?}"),
        }
    }

    #[test]
    fn bad_number_is_reported_with_position() {
        let bad = "*! net 0 victim v\nRDRV0 src0 n0 abc\n";
        match parse_deck(bad) {
            Err(SpiceParseError::BadNumber { line, col, token }) => {
                assert_eq!(token, "abc");
                assert_eq!((line, col), (2, 15));
            }
            other => panic!("expected bad-number error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_role_rejected() {
        let bad = "*! net 0 bystander v\n";
        match parse_deck(bad) {
            Err(SpiceParseError::Malformed { line, col, .. }) => {
                assert_eq!((line, col), (1, 10)); // points at "bystander"
            }
            other => panic!("expected malformed error, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_values_rejected() {
        // Tokens that parse numerically but are not finite: literals the
        // f64 parser accepts, and SI-suffix overflow.
        for tok in ["infinity", "-infinity", "1e999", "1e308k"] {
            let bad = format!("*! net 0 victim v\nRDRV0 src0 n0 {tok}\nCL0 n0 0 1f\n");
            match parse_deck(&bad) {
                Err(SpiceParseError::NonFiniteValue { line, col, token }) => {
                    assert_eq!((line, col), (2, 15));
                    assert_eq!(token, tok);
                }
                other => panic!("{tok}: expected non-finite error, got {other:?}"),
            }
        }
        // `nan`/`inf` happen to end in SI-suffix letters, so they fail one
        // step earlier as unparseable numbers — still a typed rejection.
        for tok in ["nan", "inf"] {
            let bad = format!("*! net 0 victim v\nRDRV0 src0 n0 {tok}\nCL0 n0 0 1f\n");
            assert!(matches!(
                parse_deck(&bad),
                Err(SpiceParseError::BadNumber { line: 2, col: 15, .. })
            ));
        }
    }

    #[test]
    fn negative_and_zero_element_values_rejected() {
        // Zero driver resistance.
        let bad = "*! net 0 victim v\nRDRV0 src0 n0 0\nCL0 n0 0 1f\n";
        assert!(matches!(
            parse_deck(bad),
            Err(SpiceParseError::NonPositiveValue { line: 2, col: 15, .. })
        ));
        // Negative coupling capacitor.
        let bad = "*! net 0 victim v\n*! net 1 aggressor a\nRDRV0 src0 n0 10\nRDRV1 src1 n1 10\nCL0 n0 0 1f\nCL1 n1 0 1f\nCC0 n0 n1 -2f\n";
        assert!(matches!(
            parse_deck(bad),
            Err(SpiceParseError::NonPositiveValue { line: 7, col: 11, .. })
        ));
        // Negative sink load (zero stays legal: an ideal probe).
        let bad = "*! net 0 victim v\nRDRV0 src0 n0 10\nCL0 n0 0 -1f\n";
        assert!(matches!(
            parse_deck(bad),
            Err(SpiceParseError::NonPositiveValue { line: 3, .. })
        ));
    }

    #[test]
    fn duplicate_driver_card_rejected() {
        let bad = "*! net 0 victim v\nRDRV0 src0 n0 10\nRDRV0 src0 n0 20\nCL0 n0 0 1f\n";
        match parse_deck(bad) {
            Err(SpiceParseError::DuplicateDefinition { line, col, what }) => {
                assert_eq!((line, col), (3, 1));
                assert!(what.contains("net 0"), "{what}");
            }
            other => panic!("expected duplicate-definition error, got {other:?}"),
        }
    }

    #[test]
    fn node_driven_by_two_nets_points_at_second_driver_card() {
        let bad = "*! net 0 victim v\n*! net 1 aggressor a\nRDRV0 src0 n0 10\nRDRV1 src1 n0 10\nCL0 n0 0 1f\n";
        match parse_deck(bad) {
            Err(SpiceParseError::DuplicateDefinition { line, col, what }) => {
                assert!(what.contains("n0"), "{what}");
                // Post-scan detection still points at the RDRV1 card's
                // node token (line 4, `n0` at column 12).
                assert_eq!((line, col), (4, 12));
            }
            other => panic!("expected duplicate-definition error, got {other:?}"),
        }
    }

    #[test]
    fn missing_driver_points_at_the_net_declaration() {
        let deck = "* preamble\n*! net 0 victim v\n";
        match parse_deck(deck) {
            Err(SpiceParseError::Malformed { line, col, detail }) => {
                assert_eq!((line, col), (2, 1));
                assert!(detail.contains("no RDRV card"), "{detail}");
            }
            other => panic!("expected malformed error, got {other:?}"),
        }
    }

    #[test]
    fn unreachable_node_points_at_the_referencing_card() {
        let bad = "*! net 0 victim v\nRDRV0 src0 n0 10\nCL0 n0 0 1f\nC0 nX 0 1f\n";
        match parse_deck(bad) {
            Err(SpiceParseError::Malformed { line, col, detail }) => {
                assert_eq!((line, col), (4, 4)); // the `nX` token
                assert!(detail.contains("nX"), "{detail}");
            }
            other => panic!("expected malformed error, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_output_directive_rejected() {
        let bad = "*! net 0 victim v\n*! output n0\n*! output n0\nRDRV0 src0 n0 10\nCL0 n0 0 1f\n";
        assert!(matches!(
            parse_deck(bad),
            Err(SpiceParseError::DuplicateDefinition { line: 3, .. })
        ));
    }

    #[test]
    fn structurally_invalid_deck_rejected() {
        // Two victim nets.
        let bad = "*! net 0 victim v1\n*! net 1 victim v2\nRDRV0 src0 n0 10\nRDRV1 src1 n1 10\nCL0 n0 0 1f\nCL1 n1 0 1f\n";
        let err = parse_deck(bad).unwrap_err();
        assert!(matches!(err, SpiceParseError::Invalid(_)));
        assert_eq!(err.position(), None);
    }

    #[test]
    fn every_positioned_error_exposes_its_location() {
        let cases = [
            "R1 n0\n",                        // malformed card
            "RDRV0 src0 n0 10\n",             // undeclared net
            "*! net 0 victim v\nRDRV0 src0 n0 xyz\n", // bad number
        ];
        for deck in cases {
            let err = parse_deck(deck).unwrap_err();
            let (line, col) = err.position().expect("token-level errors have positions");
            assert!(line >= 1 && col >= 1, "{err}");
        }
    }

    // ------------------------------------------------------------------
    // Malformed-deck corpus: hostile inputs must produce structured
    // errors, never panics or unbounded work.

    #[test]
    fn corpus_truncated_decks() {
        let good = write_deck(&sample_network());
        // Every prefix of a valid deck either parses or fails with a
        // structured, positioned-or-Invalid error.
        for end in 0..good.len() {
            if !good.is_char_boundary(end) {
                continue;
            }
            match parse_deck(&good[..end]) {
                Ok(_) => {}
                Err(e) => {
                    // Force Display rendering too — no panics allowed.
                    let _ = e.to_string();
                }
            }
        }
    }

    #[test]
    fn corpus_nul_bytes_and_binary_noise() {
        for deck in [
            "\u{0}\u{0}\u{0}",
            "*! net 0 victim v\nRDRV0 src0 n\u{0}0 10\n",
            "*! net 0 vic\u{0}tim v\n",
            "R1\u{0} n0 n1 5\n",
            "\u{feff}*! net 0 victim v\n", // BOM prefix
            "*! net 0 victim v\r\nRDRV0 src0 n0 10\r\nCL0 n0 0 1f\r\n", // CRLF
        ] {
            match parse_deck(deck) {
                Ok(_) => {}
                Err(e) => {
                    let _ = e.to_string();
                }
            }
        }
        // CRLF decks specifically must still parse (lines() strips \r\n
        // but not a bare \r — tokens keep working either way).
        let crlf = write_deck(&sample_network()).replace('\n', "\r\n");
        assert!(parse_deck(&crlf).is_ok());
    }

    #[test]
    fn corpus_absurd_element_counts_hit_the_limits() {
        let limits = DeckLimits {
            max_lines: 100,
            max_nets: 4,
            max_elements: 16,
        };
        // Too many lines.
        let long = "* filler\n".repeat(200);
        assert!(matches!(
            parse_deck_with_limits(&long, &limits),
            Err(SpiceParseError::TooLarge {
                what: "lines",
                line: 101,
                ..
            })
        ));
        // Too many nets.
        let mut nets = String::new();
        for i in 0..10 {
            let _ = writeln!(nets, "*! net {i} aggressor a{i}");
        }
        assert!(matches!(
            parse_deck_with_limits(&nets, &limits),
            Err(SpiceParseError::TooLarge { what: "nets", .. })
        ));
        // Too many element cards.
        let mut fat = String::from("*! net 0 victim v\nRDRV0 src0 n0 10\n");
        for i in 0..32 {
            let _ = writeln!(fat, "C{i} n0 0 1f");
        }
        assert!(matches!(
            parse_deck_with_limits(&fat, &limits),
            Err(SpiceParseError::TooLarge {
                what: "elements",
                ..
            })
        ));
        // The default limits leave normal decks untouched.
        assert!(parse_deck(&write_deck(&sample_network())).is_ok());
    }

    #[test]
    fn directive_glued_to_marker_still_parses() {
        // `*!net` (no space) is the same directive as `*! net`.
        let deck = write_deck(&sample_network()).replace("*! net", "*!net");
        assert!(parse_deck(&deck).is_ok());
    }
}
