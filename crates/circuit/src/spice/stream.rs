//! Streaming SPICE-deck reader with bounded memory.
//!
//! [`DeckStream`] reads a deck incrementally from any [`BufRead`] source,
//! assembling physical lines into logical cards and yielding them one at
//! a time — no whole-deck string is ever required. Two ingestion fixes
//! for real extracted (PEX-style) decks live here:
//!
//! * **`+` continuation lines** — long element cards folded across
//!   physical lines are joined before interpretation, and every token
//!   keeps the 1-based `line:col` of the *physical* line it appeared on,
//!   so errors still point at the right place in the file. Blank lines
//!   and plain `*` comments may sit between a card and its
//!   continuations.
//! * **Lenient directive skipping** — under
//!   [`StreamOptions::lenient`], unknown-but-benign `.`-directives
//!   (`.GLOBAL`, `.TEMP`, `.OPTION`, `.SUBCKT`/`.ENDS`, …) are counted
//!   and skipped instead of failing the parse; element cards inside a
//!   `.SUBCKT` wrapper are read flattened. Strict mode (the
//!   [`parse_deck`](super::parse_deck) default) keeps the hard error.
//!   `*!` directives are this crate's own namespace and stay strict in
//!   both modes.
//!
//! [`DeckIndex`] is the bounded consumer built on top of the stream: a
//! compact flat element table with interned node names and driver-seeded
//! net resolution. From it either the whole network is materialized
//! ([`DeckIndex::into_network`] — the engine underneath
//! [`parse_deck`](super::parse_deck)) or one coupled cluster at a time
//! (see [`crate::cluster`]) — the basis of full-chip screening, which
//! never builds a whole-deck [`crate::Network`].

use super::{parse_si_value, tokenize, DeckLimits, Span, SpiceParseError};
use crate::builder::Adjacency;
use crate::{NetId, NetRole, Network, NetworkBuilder, NodeId};
use std::collections::HashMap;
use std::io::BufRead;
use std::sync::Arc;

/// How many skipped-directive examples [`DeckStream`] records verbatim
/// (the count in [`DeckStats`] is always exact).
const MAX_SKIP_SAMPLES: usize = 8;

/// Options for [`DeckStream`] and [`DeckIndex::from_reader`].
#[derive(Debug, Clone, Default)]
pub struct StreamOptions {
    /// Size bounds (lines, nets, elements).
    pub limits: DeckLimits,
    /// Lenient mode: skip unknown `.`-directives with a counted warning
    /// instead of failing (see module docs). Strict mode — the default,
    /// and what [`parse_deck`](super::parse_deck) uses — rejects them.
    pub lenient: bool,
}

/// Counters accumulated while streaming a deck.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeckStats {
    /// Physical lines read.
    pub lines: usize,
    /// `*! net` declarations seen.
    pub nets: usize,
    /// Element cards seen (drivers, resistors, capacitors).
    pub elements: usize,
    /// `+` continuation lines joined into a preceding card.
    pub continuations: usize,
    /// Benign directives skipped in lenient mode.
    pub skipped_directives: usize,
}

/// A card token with the 1-based line and column of the physical line it
/// appeared on — for continuation lines, that is the continuation line
/// itself, not the card's first line.
#[derive(Debug, Clone, Copy)]
pub struct Field<'a> {
    /// Token text.
    pub text: &'a str,
    /// 1-based physical line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// One logical card from the deck, with numeric values already parsed,
/// validated and sign-checked.
#[derive(Debug, Clone, Copy)]
pub enum Card<'a> {
    /// `*! net <idx> <role> <name>` declaration.
    Net {
        /// Declaration index (checked contiguous from 0).
        index: usize,
        /// Declared role.
        role: NetRole,
        /// Net name token.
        name: Field<'a>,
        /// 1-based line of the declaration card.
        line: usize,
        /// 1-based column of the `*!` marker.
        col: usize,
    },
    /// `*! output <node>` victim observation node.
    Output {
        /// Node name token.
        node: Field<'a>,
        /// 1-based line of the directive.
        line: usize,
        /// 1-based column of the `*!` marker.
        col: usize,
    },
    /// `RDRV<idx> <src> <node> <ohms>` driver resistance card.
    Driver {
        /// The declared net the driver belongs to.
        net: usize,
        /// Driven node token.
        node: Field<'a>,
        /// Driver resistance (positive, finite).
        ohms: f64,
        /// 1-based line of the card name.
        line: usize,
        /// 1-based column of the card name.
        col: usize,
    },
    /// `R<k> <a> <b> <ohms>` wire resistor.
    Resistor {
        /// First node token.
        a: Field<'a>,
        /// Second node token.
        b: Field<'a>,
        /// Resistance (positive, finite).
        ohms: f64,
    },
    /// `C<k> <node> 0 <farads>` ground capacitor.
    GroundCap {
        /// Node token.
        node: Field<'a>,
        /// Capacitance (positive, finite).
        farads: f64,
    },
    /// `CL<k> <node> 0 <farads>` sink load.
    SinkCap {
        /// Node token.
        node: Field<'a>,
        /// Load capacitance (non-negative, finite).
        farads: f64,
    },
    /// `CC<k> <a> <b> <farads>` coupling capacitor.
    CouplingCap {
        /// First node token.
        a: Field<'a>,
        /// Second node token.
        b: Field<'a>,
        /// Coupling capacitance (positive, finite).
        farads: f64,
    },
    /// `.end`.
    End,
}

/// Owned description of the current card, kept free of borrows so
/// classification can update counters before the borrowed [`Card`] is
/// handed out.
enum Shape {
    Net { index: usize, role: NetRole, name: usize },
    Output { node: usize },
    Driver { net: usize, node: usize, ohms: f64 },
    Res { a: usize, b: usize, ohms: f64 },
    GCap { node: usize, farads: f64 },
    Sink { node: usize, farads: f64 },
    CCap { a: usize, b: usize, farads: f64 },
    End,
}

/// Position and arena range of one assembled token.
#[derive(Debug, Clone, Copy)]
struct TokMeta {
    line: usize,
    col: usize,
    start: usize,
    end: usize,
}

/// A plain `*` comment (a `*!` directive is not one).
fn is_comment(tok: &str) -> bool {
    tok.starts_with('*') && !tok.starts_with("*!")
}

/// ASCII-case-insensitive `s.starts_with(prefix)`.
fn starts_with_ignore_case(s: &str, prefix: &str) -> bool {
    s.len() >= prefix.len() && s.as_bytes()[..prefix.len()].eq_ignore_ascii_case(prefix.as_bytes())
}

/// Incremental card reader over any [`BufRead`] source.
///
/// Memory use is bounded by the longest logical card, not the deck:
/// the internal line buffer and token arena are reused between cards.
///
/// # Examples
///
/// ```
/// use xtalk_circuit::spice::stream::{Card, DeckStream, StreamOptions};
///
/// let deck = "*! net 0 victim v\nRDRV0 src0\n+ n0 120\nCL0 n0 0 10f\n.end\n";
/// let mut stream = DeckStream::new(deck.as_bytes(), StreamOptions::default());
/// let mut drivers = 0;
/// while let Some(card) = stream.next_card()? {
///     if let Card::Driver { ohms, .. } = card {
///         assert_eq!(ohms, 120.0);
///         drivers += 1;
///     }
/// }
/// assert_eq!(drivers, 1);
/// assert_eq!(stream.stats().continuations, 1);
/// # Ok::<(), xtalk_circuit::spice::SpiceParseError>(())
/// ```
pub struct DeckStream<R> {
    reader: R,
    limits: DeckLimits,
    lenient: bool,
    /// The physical line last read, and its tokens (split once, when the
    /// line is read; a pushed-back line keeps them).
    line_buf: String,
    line_spans: Vec<Span>,
    line_no: usize,
    pushed: bool,
    eof: bool,
    /// The current card's physical lines, head line first.
    text: String,
    /// Length of the head line at the front of `text`.
    head_len: usize,
    toks: Vec<TokMeta>,
    stats: DeckStats,
    skipped_samples: Vec<(usize, String)>,
}

impl<R: BufRead> DeckStream<R> {
    /// Creates a stream over `reader` with the given options.
    pub fn new(reader: R, options: StreamOptions) -> Self {
        DeckStream {
            reader,
            limits: options.limits,
            lenient: options.lenient,
            line_buf: String::new(),
            line_spans: Vec::new(),
            line_no: 0,
            pushed: false,
            eof: false,
            text: String::new(),
            head_len: 0,
            toks: Vec::new(),
            stats: DeckStats::default(),
            skipped_samples: Vec::new(),
        }
    }

    /// Counters so far (final once `next_card` has returned `None`).
    pub fn stats(&self) -> DeckStats {
        self.stats
    }

    /// The first few skipped directives (a bounded sample), as `(line,
    /// card name)` pairs; `stats().skipped_directives` holds the exact
    /// total.
    pub fn skipped_samples(&self) -> &[(usize, String)] {
        &self.skipped_samples
    }

    /// Yields the next logical card, or `None` at end of input.
    ///
    /// The returned [`Card`] borrows the stream's internal buffers and
    /// must be consumed before the next call.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceParseError`] for malformed cards, bad numbers,
    /// exceeded [`DeckLimits`], and I/O failures; in strict mode also
    /// for unknown `.`-directives.
    pub fn next_card(&mut self) -> Result<Option<Card<'_>>, SpiceParseError> {
        loop {
            if !self.fill_card()? {
                return Ok(None);
            }
            if let Some(shape) = self.classify()? {
                return Ok(Some(self.realize(shape)));
            }
        }
    }

    /// Reads one physical line into `line_buf` and splits it into
    /// `line_spans` (honoring a pushed-back line), returning `false` at
    /// end of input.
    fn read_physical(&mut self) -> Result<bool, SpiceParseError> {
        if self.pushed {
            self.pushed = false;
            return Ok(true);
        }
        if self.eof {
            return Ok(false);
        }
        self.line_buf.clear();
        let n = self
            .reader
            .read_line(&mut self.line_buf)
            .map_err(|e| SpiceParseError::Io(e.to_string()))?;
        if n == 0 {
            self.eof = true;
            return Ok(false);
        }
        if self.line_buf.ends_with('\n') {
            self.line_buf.pop();
            if self.line_buf.ends_with('\r') {
                self.line_buf.pop();
            }
        }
        self.line_no += 1;
        self.stats.lines = self.line_no;
        if self.line_no > self.limits.max_lines {
            return Err(SpiceParseError::TooLarge {
                line: self.line_no,
                what: "lines",
                limit: self.limits.max_lines,
            });
        }
        self.line_spans.clear();
        tokenize(&self.line_buf, &mut self.line_spans);
        Ok(true)
    }

    /// The first token of the current physical line, with its span.
    fn first_token(&self) -> Option<(Span, &str)> {
        let s = *self.line_spans.first()?;
        Some((s, &self.line_buf[s.start..s.end]))
    }

    /// Assembles the next logical card (head line plus any `+`
    /// continuations) into the token arena. Returns `false` at EOF.
    fn fill_card(&mut self) -> Result<bool, SpiceParseError> {
        // Seek the card's head line, skipping blanks and plain comments.
        loop {
            if !self.read_physical()? {
                return Ok(false);
            }
            let Some((span, first)) = self.first_token() else {
                continue; // blank line
            };
            if first.starts_with('+') {
                return Err(SpiceParseError::Malformed {
                    line: self.line_no,
                    col: span.col,
                    detail: "continuation line without a preceding card".into(),
                });
            }
            if is_comment(first) {
                continue;
            }
            break;
        }
        // The head line becomes the card text by a buffer swap, not a copy.
        self.text.clear();
        std::mem::swap(&mut self.text, &mut self.line_buf);
        self.head_len = self.text.len();
        self.toks.clear();
        let line = self.line_no;
        self.toks.extend(self.line_spans.iter().map(|s| TokMeta {
            line,
            col: s.col,
            start: s.start,
            end: s.end,
        }));

        // Absorb continuation lines; blanks and plain comments between a
        // card and its continuations are consumed harmlessly.
        loop {
            if !self.read_physical()? {
                break;
            }
            match self.first_token() {
                None => continue,
                Some((_, first)) if is_comment(first) => continue,
                Some((_, first)) if !first.starts_with('+') => {
                    self.pushed = true; // next card's head line, spans kept
                    break;
                }
                Some(_) => {
                    self.append_continuation();
                    self.stats.continuations += 1;
                }
            }
        }
        Ok(true)
    }

    /// Appends the current physical line, a `+` continuation, to the card.
    /// The marker is stripped: a bare `+` token is dropped, a glued `+tok`
    /// keeps `tok` with its column shifted past the marker.
    fn append_continuation(&mut self) {
        let base = self.text.len();
        self.text.push_str(&self.line_buf);
        for (i, s) in self.line_spans.iter().enumerate() {
            let (col, start) = if i == 0 {
                (s.col + 1, s.start + 1)
            } else {
                (s.col, s.start)
            };
            if start < s.end {
                self.toks.push(TokMeta {
                    line: self.line_no,
                    col,
                    start: base + start,
                    end: base + s.end,
                });
            }
        }
    }

    fn tok_text(&self, i: usize) -> &str {
        let t = self.toks[i];
        &self.text[t.start..t.end]
    }

    /// At least `n` fields on the card, or the classic malformed error
    /// at the card name.
    fn need(&self, n: usize) -> Result<(), SpiceParseError> {
        if self.toks.len() < n {
            let t0 = self.toks[0];
            return Err(SpiceParseError::Malformed {
                line: t0.line,
                col: t0.col,
                detail: format!("expected at least {n} fields, found {}", self.toks.len()),
            });
        }
        Ok(())
    }

    /// Parses token `i` as a finite SI-suffixed number.
    fn value(&self, i: usize) -> Result<f64, SpiceParseError> {
        let t = self.toks[i];
        let tok = self.tok_text(i);
        let v = parse_si_value(tok).ok_or_else(|| SpiceParseError::BadNumber {
            line: t.line,
            col: t.col,
            token: tok.to_string(),
        })?;
        if !v.is_finite() {
            return Err(SpiceParseError::NonFiniteValue {
                line: t.line,
                col: t.col,
                token: tok.to_string(),
            });
        }
        Ok(v)
    }

    /// Resistances and capacitances must be positive.
    fn positive(&self, i: usize) -> Result<f64, SpiceParseError> {
        let v = self.value(i)?;
        if v <= 0.0 {
            let t = self.toks[i];
            return Err(SpiceParseError::NonPositiveValue {
                line: t.line,
                col: t.col,
                token: self.tok_text(i).to_string(),
            });
        }
        Ok(v)
    }

    /// Sink loads may be zero (ideal probes) but not negative.
    fn non_negative(&self, i: usize) -> Result<f64, SpiceParseError> {
        let v = self.value(i)?;
        if v < 0.0 {
            let t = self.toks[i];
            return Err(SpiceParseError::NonPositiveValue {
                line: t.line,
                col: t.col,
                token: self.tok_text(i).to_string(),
            });
        }
        Ok(v)
    }

    /// Interprets the assembled card. `Ok(None)` means the card was
    /// consumed without producing output (`VDRV` placeholder sources,
    /// leniently skipped directives).
    fn classify(&mut self) -> Result<Option<Shape>, SpiceParseError> {
        let TokMeta {
            line: name_line,
            col: name_col,
            ..
        } = self.toks[0];
        if self.tok_text(0).eq_ignore_ascii_case(".end") {
            return Ok(Some(Shape::End));
        }
        if self.tok_text(0).starts_with("*!") {
            return self.classify_directive();
        }
        let name = self.tok_text(0);
        if name.starts_with('.') {
            if self.lenient {
                self.stats.skipped_directives += 1;
                if self.skipped_samples.len() < MAX_SKIP_SAMPLES {
                    let name = self.tok_text(0).to_string();
                    self.skipped_samples.push((name_line, name));
                }
                return Ok(None);
            }
            return Err(SpiceParseError::Malformed {
                line: name_line,
                col: name_col,
                detail: format!("unsupported card {:?}", self.tok_text(0)),
            });
        }
        if starts_with_ignore_case(name, "VDRV") {
            return Ok(None); // placeholder source; structure comes from RDRV
        }
        self.stats.elements += 1;
        if self.stats.elements > self.limits.max_elements {
            return Err(SpiceParseError::TooLarge {
                line: name_line,
                what: "elements",
                limit: self.limits.max_elements,
            });
        }
        let name = self.tok_text(0);
        if starts_with_ignore_case(name, "RDRV") {
            self.need(4)?;
            let net: usize = name[4..].parse().map_err(|_| SpiceParseError::Malformed {
                line: name_line,
                col: name_col,
                detail: format!("bad driver index in {:?}", self.tok_text(0)),
            })?;
            if net >= self.stats.nets {
                return Err(SpiceParseError::Malformed {
                    line: name_line,
                    col: name_col,
                    detail: format!(
                        "driver {:?} references undeclared net {net}",
                        self.tok_text(0)
                    ),
                });
            }
            Ok(Some(Shape::Driver {
                net,
                node: 2,
                ohms: self.positive(3)?,
            }))
        } else if starts_with_ignore_case(name, "CC") {
            self.need(4)?;
            Ok(Some(Shape::CCap {
                a: 1,
                b: 2,
                farads: self.positive(3)?,
            }))
        } else if starts_with_ignore_case(name, "CL") {
            self.need(4)?;
            Ok(Some(Shape::Sink {
                node: 1,
                farads: self.non_negative(3)?,
            }))
        } else if starts_with_ignore_case(name, "C") {
            self.need(4)?;
            Ok(Some(Shape::GCap {
                node: 1,
                farads: self.positive(3)?,
            }))
        } else if starts_with_ignore_case(name, "R") {
            self.need(4)?;
            Ok(Some(Shape::Res {
                a: 1,
                b: 2,
                ohms: self.positive(3)?,
            }))
        } else {
            Err(SpiceParseError::Malformed {
                line: name_line,
                col: name_col,
                detail: format!("unsupported card {:?}", self.tok_text(0)),
            })
        }
    }

    /// Interprets a `*!` directive card (`*! net …` / `*! output …`,
    /// including the glued `*!net` form). These are this crate's own
    /// namespace, so unknown ones are errors even in lenient mode.
    fn classify_directive(&mut self) -> Result<Option<Shape>, SpiceParseError> {
        let TokMeta {
            line: name_line,
            col: name_col,
            ..
        } = self.toks[0];
        // Directive fields: with the glued form the first field lives
        // inside token 0 past the `*!` marker; otherwise fields are the
        // tokens after the marker.
        let glued = self.tok_text(0).len() > 2;
        let fcount = if glued {
            self.toks.len()
        } else {
            self.toks.len() - 1
        };
        let ftext = |i: usize| -> &str {
            if glued {
                if i == 0 {
                    &self.tok_text(0)[2..]
                } else {
                    self.tok_text(i)
                }
            } else {
                self.tok_text(i + 1)
            }
        };
        let fpos = |i: usize| -> (usize, usize) {
            let t = if glued { self.toks[i] } else { self.toks[i + 1] };
            if glued && i == 0 {
                (t.line, t.col + 2)
            } else {
                (t.line, t.col)
            }
        };
        match (fcount > 0).then(|| ftext(0)) {
            Some("net") => {
                if fcount < 4 {
                    return Err(SpiceParseError::Malformed {
                        line: name_line,
                        col: name_col,
                        detail: "expected `*! net <idx> <role> <name>`".into(),
                    });
                }
                let (l1, c1) = fpos(1);
                let index: usize = ftext(1).parse().map_err(|_| SpiceParseError::BadNumber {
                    line: l1,
                    col: c1,
                    token: ftext(1).into(),
                })?;
                let role = match ftext(2) {
                    "victim" => NetRole::Victim,
                    "aggressor" => NetRole::Aggressor,
                    other => {
                        let (l2, c2) = fpos(2);
                        return Err(SpiceParseError::Malformed {
                            line: l2,
                            col: c2,
                            detail: format!("unknown net role {other:?}"),
                        });
                    }
                };
                if index != self.stats.nets {
                    return Err(SpiceParseError::Malformed {
                        line: l1,
                        col: c1,
                        detail: format!("net index {index} out of order"),
                    });
                }
                if self.stats.nets >= self.limits.max_nets {
                    return Err(SpiceParseError::TooLarge {
                        line: name_line,
                        what: "nets",
                        limit: self.limits.max_nets,
                    });
                }
                let name = if glued { 3 } else { 4 };
                self.stats.nets += 1;
                Ok(Some(Shape::Net { index, role, name }))
            }
            Some("output") => {
                if fcount != 2 {
                    return Err(SpiceParseError::Malformed {
                        line: name_line,
                        col: name_col,
                        detail: "expected `*! output <node>`".into(),
                    });
                }
                Ok(Some(Shape::Output {
                    node: if glued { 1 } else { 2 },
                }))
            }
            _ => Err(SpiceParseError::Malformed {
                line: name_line,
                col: name_col,
                detail: format!("unknown directive {:?}", self.text[..self.head_len].trim()),
            }),
        }
    }

    fn field(&self, i: usize) -> Field<'_> {
        let t = self.toks[i];
        Field {
            text: &self.text[t.start..t.end],
            line: t.line,
            col: t.col,
        }
    }

    /// Converts the owned shape into the borrowed public card.
    fn realize(&self, shape: Shape) -> Card<'_> {
        let t0 = self.toks[0];
        match shape {
            Shape::Net { index, role, name } => Card::Net {
                index,
                role,
                name: self.field(name),
                line: t0.line,
                col: t0.col,
            },
            Shape::Output { node } => Card::Output {
                node: self.field(node),
                line: t0.line,
                col: t0.col,
            },
            Shape::Driver { net, node, ohms } => Card::Driver {
                net,
                node: self.field(node),
                ohms,
                line: t0.line,
                col: t0.col,
            },
            Shape::Res { a, b, ohms } => Card::Resistor {
                a: self.field(a),
                b: self.field(b),
                ohms,
            },
            Shape::GCap { node, farads } => Card::GroundCap {
                node: self.field(node),
                farads,
            },
            Shape::Sink { node, farads } => Card::SinkCap {
                node: self.field(node),
                farads,
            },
            Shape::CCap { a, b, farads } => Card::CouplingCap {
                a: self.field(a),
                b: self.field(b),
                farads,
            },
            Shape::End => Card::End,
        }
    }
}

/// A node-name occurrence: interned node id plus the deck position of
/// the referencing token, so late errors still point at their source.
/// Positions are stored as `u32` (saturating) to keep element rows small.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeUse {
    pub(crate) node: u32,
    line: u32,
    col: u32,
}

impl NodeUse {
    /// The `(line, col)` of the referencing token.
    fn position(&self) -> (usize, usize) {
        (self.line as usize, self.col as usize)
    }
}

/// One declared net in a [`DeckIndex`].
#[derive(Debug, Clone)]
pub(crate) struct IndexedNet {
    pub(crate) name: String,
    pub(crate) role: NetRole,
    pub(crate) driver: Option<(NodeUse, f64)>,
    decl_line: usize,
    decl_col: usize,
}

/// Compact whole-deck element index built by draining a [`DeckStream`]:
/// flat per-kind element arrays over interned node ids, with node→net
/// resolution (driver-seeded, grown along resistors) already performed.
///
/// This is the bounded-memory representation full-chip screening works
/// from — memory is proportional to the deck's element count with a
/// small constant, and no [`Network`], tree or matrix structure is
/// built. Networks are materialized per coupled cluster on demand
/// (see [`crate::cluster`]), or all at once via [`Self::into_network`]
/// (which is exactly what [`parse_deck`](super::parse_deck) does).
#[derive(Debug, Clone)]
pub struct DeckIndex {
    /// Interned node names; `ids` shares each name's allocation.
    names: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, u32>,
    /// Net owning each node, resolved; `None` = unreachable from any
    /// driver.
    pub(crate) node_net: Vec<Option<u32>>,
    pub(crate) nets: Vec<IndexedNet>,
    pub(crate) resistors: Vec<(NodeUse, NodeUse, f64)>,
    pub(crate) ground_caps: Vec<(NodeUse, f64)>,
    pub(crate) sinks: Vec<(NodeUse, f64)>,
    pub(crate) coupling_caps: Vec<(NodeUse, NodeUse, f64)>,
    pub(crate) output: Option<NodeUse>,
    stats: DeckStats,
    skipped_samples: Vec<(usize, String)>,
}

impl DeckIndex {
    /// Streams a whole deck from `reader` into an index.
    ///
    /// # Errors
    ///
    /// Propagates every [`DeckStream`] error, plus duplicate-definition
    /// errors (driver cards, output directives, nodes driven by two
    /// nets) and missing-driver errors.
    pub fn from_reader<R: BufRead>(
        reader: R,
        options: StreamOptions,
    ) -> Result<Self, SpiceParseError> {
        let mut stream = DeckStream::new(reader, options);
        let mut index = DeckIndex {
            names: Vec::new(),
            ids: HashMap::new(),
            node_net: Vec::new(),
            nets: Vec::new(),
            resistors: Vec::new(),
            ground_caps: Vec::new(),
            sinks: Vec::new(),
            coupling_caps: Vec::new(),
            output: None,
            stats: DeckStats::default(),
            skipped_samples: Vec::new(),
        };
        while let Some(card) = stream.next_card()? {
            match card {
                Card::Net {
                    role,
                    name,
                    line,
                    col,
                    ..
                } => {
                    index.nets.push(IndexedNet {
                        name: name.text.to_string(),
                        role,
                        driver: None,
                        decl_line: line,
                        decl_col: col,
                    });
                }
                Card::Output { node, line, col } => {
                    if index.output.is_some() {
                        return Err(SpiceParseError::DuplicateDefinition {
                            line,
                            col,
                            what: "output directive".into(),
                        });
                    }
                    let nu = index.intern(node);
                    index.output = Some(nu);
                }
                Card::Driver {
                    net,
                    node,
                    ohms,
                    line,
                    col,
                } => {
                    if index.nets[net].driver.is_some() {
                        return Err(SpiceParseError::DuplicateDefinition {
                            line,
                            col,
                            what: format!("driver card for net {net}"),
                        });
                    }
                    let nu = index.intern(node);
                    index.nets[net].driver = Some((nu, ohms));
                }
                Card::Resistor { a, b, ohms } => {
                    let (a, b) = (index.intern(a), index.intern(b));
                    index.resistors.push((a, b, ohms));
                }
                Card::GroundCap { node, farads } => {
                    let nu = index.intern(node);
                    index.ground_caps.push((nu, farads));
                }
                Card::SinkCap { node, farads } => {
                    let nu = index.intern(node);
                    index.sinks.push((nu, farads));
                }
                Card::CouplingCap { a, b, farads } => {
                    let (a, b) = (index.intern(a), index.intern(b));
                    index.coupling_caps.push((a, b, farads));
                }
                Card::End => {}
            }
        }
        index.stats = stream.stats();
        index.skipped_samples = std::mem::take(&mut stream.skipped_samples);
        index.resolve()?;
        Ok(index)
    }

    /// Interns a node-name token.
    fn intern(&mut self, f: Field<'_>) -> NodeUse {
        let node = match self.ids.get(f.text) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.names.len()).unwrap_or(u32::MAX);
                let name: Arc<str> = Arc::from(f.text);
                self.names.push(Arc::clone(&name));
                self.ids.insert(name, id);
                self.node_net.push(None);
                id
            }
        };
        NodeUse {
            node,
            line: u32::try_from(f.line).unwrap_or(u32::MAX),
            col: u32::try_from(f.col).unwrap_or(u32::MAX),
        }
    }

    /// Assigns nodes to nets: seed each net with its driver node, then
    /// claim every node reachable through resistors by one breadth-first
    /// search per driver, in net order, over a CSR (compressed sparse
    /// row) resistor adjacency. O(nodes + resistors) whatever order the
    /// cards come in. Nets are resistively disjoint in valid decks, so
    /// each node has exactly one possible owner; a resistor joining two
    /// nets is left for [`NetworkBuilder::build`] to reject.
    fn resolve(&mut self) -> Result<(), SpiceParseError> {
        for i in 0..self.nets.len() {
            let Some((nu, _)) = self.nets[i].driver else {
                return Err(SpiceParseError::Malformed {
                    line: self.nets[i].decl_line,
                    col: self.nets[i].decl_col,
                    detail: format!("net {i} has no RDRV card"),
                });
            };
            if self.node_net[nu.node as usize].is_some() {
                let (line, col) = nu.position();
                return Err(SpiceParseError::DuplicateDefinition {
                    line,
                    col,
                    what: format!(
                        "node {:?} (driver node of two different nets)",
                        self.names[nu.node as usize]
                    ),
                });
            }
            self.node_net[nu.node as usize] = Some(u32::try_from(i).unwrap_or(u32::MAX));
        }
        let adjacency = Adjacency::new(
            self.names.len(),
            self.resistors.iter().map(|(a, b, _)| (a.node, b.node)),
        );
        let mut queue: Vec<u32> = Vec::new();
        for net in &self.nets {
            let (root, _) = net.driver.expect("checked above");
            let owner = self.node_net[root.node as usize];
            queue.clear();
            queue.push(root.node);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                for &(v, _) in adjacency.at(u) {
                    if self.node_net[v as usize].is_none() {
                        self.node_net[v as usize] = owner;
                        queue.push(v);
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of declared nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Name of net `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= net_count()`.
    pub fn net_name(&self, i: usize) -> &str {
        &self.nets[i].name
    }

    /// Declared role of net `i` (advisory for screening, which treats
    /// every net as a victim in turn).
    ///
    /// # Panics
    ///
    /// Panics when `i >= net_count()`.
    pub fn net_role(&self, i: usize) -> NetRole {
        self.nets[i].role
    }

    /// Stream counters for the whole deck.
    pub fn stats(&self) -> DeckStats {
        self.stats
    }

    /// The first few leniently skipped directives, as `(line, card
    /// name)` pairs.
    pub fn skipped_samples(&self) -> &[(usize, String)] {
        &self.skipped_samples
    }

    /// Number of nodes referenced by element cards but unreachable from
    /// any driver through resistors. Whole-deck materialization rejects
    /// these with a positioned error; cluster materialization skips
    /// their elements.
    pub fn unassigned_nodes(&self) -> usize {
        self.node_net.iter().filter(|n| n.is_none()).count()
    }

    /// The net owning the `*! output` node, when present and resolved.
    pub fn output_net(&self) -> Option<usize> {
        let out = self.output.as_ref()?;
        self.node_net[out.node as usize].map(|n| n as usize)
    }

    /// Materializes the whole deck as one validated [`Network`] with the
    /// deck's declared roles — the engine underneath
    /// [`parse_deck`](super::parse_deck).
    ///
    /// # Errors
    ///
    /// [`SpiceParseError::Malformed`] for element cards referencing
    /// nodes unreachable from any driver, and
    /// [`SpiceParseError::Invalid`] when the described structure fails
    /// [`NetworkBuilder::build`] validation.
    pub fn into_network(self) -> Result<Network, SpiceParseError> {
        // Every row of each table: prefixes of one `0, 1, 2, …` run.
        let lens = [
            self.nets.len(),
            self.resistors.len(),
            self.ground_caps.len(),
            self.sinks.len(),
            self.coupling_caps.len(),
        ];
        let longest = lens.into_iter().max().unwrap_or(0);
        let every: Vec<u32> = (0..u32::try_from(longest).unwrap_or(u32::MAX)).collect();
        let nodes = self.owned_nodes_by_name();
        let slot = self.slots(std::iter::once(&nodes[..]));
        let rows = Rows {
            nets: &every[..self.nets.len()],
            nodes: &nodes,
            slot: &slot,
            resistors: &every[..self.resistors.len()],
            ground_caps: &every[..self.ground_caps.len()],
            sinks: &every[..self.sinks.len()],
            coupling_caps: &every[..self.coupling_caps.len()],
        };
        Ok(self.materialize(rows, None)?.0)
    }

    /// Every node owned by a net, sorted by name — the node order of
    /// every materialized network.
    pub(crate) fn owned_nodes_by_name(&self) -> Vec<u32> {
        let mut nodes: Vec<u32> = (0..u32::try_from(self.names.len()).unwrap_or(u32::MAX))
            .filter(|&id| self.node_net[id as usize].is_some())
            .collect();
        // Names are interned, hence unique: the unstable sort is
        // deterministic.
        nodes.sort_unstable_by(|&a, &b| self.names[a as usize].cmp(&self.names[b as usize]));
        nodes
    }

    /// Each node's position within its group, indexed by deck node id:
    /// the local node id a materialization of that group gives it. Nodes
    /// in no group read `u32::MAX`.
    pub(crate) fn slots<'g>(&self, groups: impl Iterator<Item = &'g [u32]>) -> Vec<u32> {
        let mut slot = vec![u32::MAX; self.names.len()];
        for group in groups {
            for (i, &id) in group.iter().enumerate() {
                slot[id as usize] = u32::try_from(i).unwrap_or(u32::MAX);
            }
        }
        slot
    }

    /// Materializes the network made of `rows`: nets in the order given,
    /// nodes in the order given (name order), elements in deck order.
    ///
    /// With `victim == None` the nets keep their deck roles and the deck's
    /// `*! output` node is the observation node (the whole-deck path).
    /// With `victim == Some(v)` net `v` is the victim, every other net an
    /// aggressor, and the observation node is the builder default; the
    /// local id of the deck's output node, when it is among `rows.nodes`,
    /// is returned for the caller to apply (see
    /// [`Island::designate`](crate::cluster::Island::designate)).
    ///
    /// An island's rows are the whole deck's rows with other islands'
    /// deleted, so an island network is exactly the whole-deck network
    /// restricted to the island.
    pub(crate) fn materialize(
        &self,
        rows: Rows<'_>,
        victim: Option<u32>,
    ) -> Result<(Network, Option<NodeId>), SpiceParseError> {
        let mut b = NetworkBuilder::with_capacity(
            rows.nets.len(),
            rows.nodes.len(),
            rows.resistors.len(),
            rows.ground_caps.len(),
            rows.sinks.len(),
            rows.coupling_caps.len(),
        );
        // `rows.nets` is ascending, so a net's local id is its position.
        let local_net = |net: u32| {
            let i = rows
                .nets
                .binary_search(&net)
                .expect("row nets are selected");
            NetId(u32::try_from(i).unwrap_or(u32::MAX))
        };
        for &m in rows.nets {
            let role = match victim {
                None => self.nets[m as usize].role,
                Some(v) if v == m => NetRole::Victim,
                Some(_) => NetRole::Aggressor,
            };
            b.add_net(self.nets[m as usize].name.clone(), role);
        }
        for &id in rows.nodes {
            let owner = self.node_net[id as usize].expect("row nodes are owned");
            b.add_node(local_net(owner), &*self.names[id as usize]);
        }
        // A deck node's local id is its slot, when the slot points back at
        // it; otherwise the node is not among `rows.nodes`.
        let local = |id: u32| {
            let s = rows.slot[id as usize];
            (rows.nodes.get(s as usize) == Some(&id)).then_some(NodeId(s))
        };
        // A row node outside `rows.nodes` is unreachable from any driver:
        // an error at the referencing token. Island rows never hit this;
        // partitioning leaves such rows out of every island.
        let resolve = |nu: &NodeUse| -> Result<NodeId, SpiceParseError> {
            local(nu.node).ok_or_else(|| {
                let (line, col) = nu.position();
                SpiceParseError::Malformed {
                    line,
                    col,
                    detail: format!(
                        "node {:?} not reachable from any driver",
                        self.names[nu.node as usize]
                    ),
                }
            })
        };

        for &m in rows.nets {
            let (nu, ohms) = self.nets[m as usize]
                .driver
                .as_ref()
                .expect("resolve() checked drivers");
            b.add_driver(local_net(m), resolve(nu)?, *ohms)?;
        }
        for &k in rows.resistors {
            let (x, y, ohms) = &self.resistors[k as usize];
            b.add_resistor(resolve(x)?, resolve(y)?, *ohms)?;
        }
        for &k in rows.ground_caps {
            let (n, f) = &self.ground_caps[k as usize];
            b.add_ground_cap(resolve(n)?, *f)?;
        }
        for &k in rows.sinks {
            let (n, f) = &self.sinks[k as usize];
            b.add_sink(resolve(n)?, *f)?;
        }
        for &k in rows.coupling_caps {
            let (x, y, f) = &self.coupling_caps[k as usize];
            b.add_coupling_cap(resolve(x)?, resolve(y)?, *f)?;
        }
        let output = self.output.as_ref().and_then(|out| local(out.node));
        if victim.is_none() {
            if let Some(out) = &self.output {
                b.set_victim_output(resolve(out)?);
            }
        }
        Ok((b.build()?, output))
    }
}

/// The rows one materialization reads: net indices (ascending), node ids
/// in name order, and row indices into each element table in deck order.
/// `slot` maps a deck node id to its position in `nodes` (see
/// [`DeckIndex::slots`]); it may be shared by many disjoint row sets.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rows<'a> {
    pub(crate) nets: &'a [u32],
    pub(crate) nodes: &'a [u32],
    pub(crate) slot: &'a [u32],
    pub(crate) resistors: &'a [u32],
    pub(crate) ground_caps: &'a [u32],
    pub(crate) sinks: &'a [u32],
    pub(crate) coupling_caps: &'a [u32],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spice::{parse_deck, write_deck};
    use crate::NetworkBuilder;

    fn two_net_deck() -> String {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("vic", NetRole::Victim);
        let a = b.add_net("agg", NetRole::Aggressor);
        let v0 = b.add_node(v, "v0");
        let v1 = b.add_node(v, "v1");
        let a0 = b.add_node(a, "a0");
        b.add_driver(v, v0, 150.0).unwrap();
        b.add_driver(a, a0, 90.0).unwrap();
        b.add_resistor(v0, v1, 25.0).unwrap();
        b.add_ground_cap(v1, 8e-15).unwrap();
        b.add_sink(v1, 12e-15).unwrap();
        b.add_sink(a0, 10e-15).unwrap();
        b.add_coupling_cap(v1, a0, 22e-15).unwrap();
        write_deck(&b.build().unwrap())
    }

    /// Folds every element card after its second token with a `+`
    /// continuation line.
    fn fold_cards(deck: &str) -> String {
        let mut out = String::new();
        for line in deck.lines() {
            let toks: Vec<&str> = line.split_whitespace().collect();
            if toks.len() >= 4 && !line.starts_with('*') && !line.starts_with('.') {
                out.push_str(&format!(
                    "{} {}\n+   {}\n",
                    toks[0],
                    toks[1],
                    toks[2..].join(" ")
                ));
            } else {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    #[test]
    fn continuation_lines_join_into_one_card() {
        let deck = two_net_deck();
        let folded = fold_cards(&deck);
        assert!(folded.contains("\n+   "), "{folded}");
        let plain = parse_deck(&deck).unwrap();
        let joined = parse_deck(&folded).unwrap();
        assert_eq!(plain.node_count(), joined.node_count());
        assert_eq!(plain.resistors(), joined.resistors());
        assert_eq!(plain.coupling_caps(), joined.coupling_caps());
    }

    #[test]
    fn continuation_stats_are_counted() {
        let deck = fold_cards(&two_net_deck());
        let index =
            DeckIndex::from_reader(deck.as_bytes(), StreamOptions::default()).unwrap();
        // Every folded card contributed exactly one continuation line.
        assert_eq!(
            index.stats().continuations,
            deck.lines().filter(|l| l.starts_with('+')).count()
        );
    }

    #[test]
    fn continuation_errors_point_at_the_physical_line() {
        // The bad value sits on the continuation line (line 3, col 5).
        let deck = "*! net 0 victim v\nRDRV0 src0\n+   n0 bogus\n";
        match parse_deck(deck) {
            Err(SpiceParseError::BadNumber { line, col, token }) => {
                assert_eq!((line, col), (3, 8));
                assert_eq!(token, "bogus");
            }
            other => panic!("expected bad-number error, got {other:?}"),
        }
    }

    #[test]
    fn continuation_survives_interleaved_blank_and_comment_lines() {
        let deck = "*! net 0 victim v\nRDRV0 src0\n* a comment\n\n+ n0 120\nCL0 n0 0 10f\n";
        let network = parse_deck(deck).unwrap();
        assert_eq!(network.net_count(), 1);
    }

    #[test]
    fn stray_continuation_is_rejected() {
        let deck = "* comment only so far\n+ R0 n0 n1 5\n";
        match parse_deck(deck) {
            Err(SpiceParseError::Malformed { line, col, detail }) => {
                assert_eq!((line, col), (2, 1));
                assert!(detail.contains("continuation"), "{detail}");
            }
            other => panic!("expected malformed error, got {other:?}"),
        }
    }

    #[test]
    fn glued_continuation_token_keeps_its_column() {
        // `+n0` glues the marker to the token; the node is still `n0`.
        let deck = "*! net 0 victim v\nRDRV0 src0\n+n0 120\nCL0 n0 0 10f\n";
        let network = parse_deck(deck).unwrap();
        assert_eq!(network.node_count(), 1);
    }

    #[test]
    fn lenient_mode_skips_benign_directives_and_counts_them() {
        let deck = "\
.GLOBAL vdd vss\n.TEMP 25\n*! net 0 victim v\nRDRV0 src0 n0 120\n\
.SUBCKT shell\nCL0 n0 0 10f\n.ENDS shell\n.OPTION post=1\n.end\n";
        // Strict: hard error on the first directive.
        match parse_deck(deck) {
            Err(SpiceParseError::Malformed { line, col, detail }) => {
                assert_eq!((line, col), (1, 1));
                assert!(detail.contains(".GLOBAL"), "{detail}");
            }
            other => panic!("expected malformed error, got {other:?}"),
        }
        // Lenient: skip with exact accounting, contents parse flattened.
        let index = DeckIndex::from_reader(
            deck.as_bytes(),
            StreamOptions {
                lenient: true,
                ..StreamOptions::default()
            },
        )
        .unwrap();
        assert_eq!(index.stats().skipped_directives, 5);
        assert_eq!(index.skipped_samples().len(), 5);
        assert_eq!(index.skipped_samples()[0], (1, ".GLOBAL".to_string()));
        let network = index.into_network().unwrap();
        assert_eq!(network.net_count(), 1);
    }

    #[test]
    fn lenient_mode_still_rejects_unknown_bang_directives() {
        let deck = "*! nonsense here\n";
        let err = DeckIndex::from_reader(
            deck.as_bytes(),
            StreamOptions {
                lenient: true,
                ..StreamOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SpiceParseError::Malformed { line: 1, .. }));
    }

    #[test]
    fn streamed_parse_matches_whole_deck_parse() {
        let deck = two_net_deck();
        let whole = parse_deck(&deck).unwrap();
        let streamed = DeckIndex::from_reader(deck.as_bytes(), StreamOptions::default())
            .unwrap()
            .into_network()
            .unwrap();
        assert_eq!(whole.node_count(), streamed.node_count());
        assert_eq!(whole.resistors(), streamed.resistors());
        assert_eq!(whole.ground_caps(), streamed.ground_caps());
        assert_eq!(whole.coupling_caps(), streamed.coupling_caps());
        assert_eq!(whole.victim_output(), streamed.victim_output());
    }

    #[test]
    fn io_errors_surface_as_structured_errors() {
        struct Failing;
        impl std::io::Read for Failing {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        let reader = std::io::BufReader::new(Failing);
        let err = DeckIndex::from_reader(reader, StreamOptions::default()).unwrap_err();
        assert!(matches!(err, SpiceParseError::Io(_)));
        assert!(err.to_string().contains("disk on fire"));
        assert_eq!(err.position(), None);
    }

    /// A one-net chain of `segments` unit resistors from the driver node
    /// `n0` to the sink `n<segments>`, its resistor cards in driver→sink
    /// order or reversed.
    fn chain_deck(segments: usize, sink_first: bool) -> String {
        let mut deck = String::from("*! net 0 victim v\nRDRV0 src0 n0 100\n");
        let card = |k: usize| format!("R{k} n{k} n{} 1\n", k + 1);
        if sink_first {
            deck.extend((0..segments).rev().map(card));
        } else {
            deck.extend((0..segments).map(card));
        }
        deck.push_str(&format!("CL0 n{segments} 0 1f\n.end\n"));
        deck
    }

    #[test]
    fn resolve_is_linear_in_a_chain_written_sink_to_driver() {
        // Growing ownership one hop per sweep over the resistor table
        // would take 10^5 sweeps here; one search from the driver takes
        // one pass.
        const SEGMENTS: usize = 100_000;
        let owners = |index: &DeckIndex| -> Vec<(String, Option<u32>)> {
            let mut owners: Vec<_> = index
                .names
                .iter()
                .zip(&index.node_net)
                .map(|(name, &net)| (name.to_string(), net))
                .collect();
            owners.sort();
            owners
        };
        let forward = DeckIndex::from_reader(
            chain_deck(SEGMENTS, false).as_bytes(),
            StreamOptions::default(),
        )
        .unwrap();
        let backward = DeckIndex::from_reader(
            chain_deck(SEGMENTS, true).as_bytes(),
            StreamOptions::default(),
        )
        .unwrap();
        assert_eq!(backward.unassigned_nodes(), 0);
        assert_eq!(owners(&forward), owners(&backward));
        let (forward, backward) = (
            forward.into_network().unwrap(),
            backward.into_network().unwrap(),
        );
        let order = |network: &Network| -> Vec<String> {
            let tree = network.tree(network.victim());
            tree.order()
                .iter()
                .map(|&n| network.node_name(n).to_string())
                .collect()
        };
        let order_forward = order(&forward);
        assert_eq!(order_forward.len(), SEGMENTS + 1);
        assert_eq!(order_forward[0], "n0");
        assert_eq!(order_forward[SEGMENTS], format!("n{SEGMENTS}"));
        assert_eq!(order_forward, order(&backward));
    }

    #[test]
    fn resistor_across_nets_is_still_invalid() {
        // `x` hangs off both drivers: whichever net claims it, one
        // resistor joins two nets.
        let deck = "*! net 0 victim v\n*! net 1 aggressor a\n\
RDRV0 s0 n0 100\nRDRV1 s1 m0 100\nR0 x n0 5\nR1 m0 x 5\n\
CL0 n0 0 1f\nCL1 m0 0 1f\nCC0 n0 m0 1f\n.end\n";
        let err = parse_deck(deck).unwrap_err();
        assert!(
            matches!(
                err,
                SpiceParseError::Invalid(crate::CircuitError::ResistorAcrossNets { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn driver_continuation_mid_card_round_trips() {
        // Split an RDRV card between the source node and the driven
        // node — the exact fold shape PEX exporters emit.
        let deck = "*! net 0 victim v\n*! net 1 aggressor a\n\
RDRV0 src0\n+ n0 120\nRDRV1\n+ src1 n1\n+ 90\n\
CL0 n0 0 10f\nCL1 n1 0 12f\nCC0 n0 n1 5f\n.end\n";
        let network = parse_deck(deck).unwrap();
        assert_eq!(network.net_count(), 2);
        assert_eq!(network.coupling_caps().len(), 1);
    }
}
