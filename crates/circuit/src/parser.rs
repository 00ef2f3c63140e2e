//! A SPICE-subset netlist parser.
//!
//! Enough of the classic deck syntax to describe the paper's circuits in
//! text form:
//!
//! ```text
//! * comment
//! M<name> <drain> <gate> <source> <body> <nmos|pmos> W=1u L=0.35u
//! W<name> <a> <b> W=0.6u L=40u          ; wire segment (w × l geometry)
//! C<name> <node> 0 10f                  ; grounded capacitor
//! .input  a b
//! .output z
//! .end
//! ```
//!
//! Values accept the usual engineering suffixes
//! (`f p n u m k meg g`). Net `0` aliases ground.
//!
//! The parser is total over arbitrary input: any malformed deck — bad
//! card, bad value, non-finite or non-positive geometry, duplicate
//! device name, self-shorted device — comes back as
//! [`NumError::InvalidInput`] carrying the 1-based line *and column* of
//! the offending token, never a panic. This is the contract the serving
//! layer relies on to turn bad `load` payloads into protocol `400`
//! replies.

use crate::intern::{name_at, name_hash, push_name, NameIndex, Span};
use crate::netlist::Netlist;
use crate::stage::DeviceKind;
use qwm_device::model::Geometry;
use qwm_num::{NumError, Result};

/// Parses an engineering-notation value like `0.35u` or `10f`.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] on malformed or non-finite
/// numbers (overflowing literals like `1e999` are rejected, not mapped
/// to infinity).
pub fn parse_value(s: &str) -> Result<f64> {
    scaled_value(s).ok_or_else(|| malformed_value(s))
}

fn malformed_value(s: &str) -> NumError {
    NumError::InvalidInput {
        context: "parse_value",
        detail: format!("malformed value {s:?}"),
    }
}

/// `s` as an engineering-notation number, suffixes matched without
/// regard to ASCII case; `None` unless it is a finite one.
fn scaled_value(s: &str) -> Option<f64> {
    let b = s.as_bytes();
    let (num, mult) = if b.len() >= 3 && b[b.len() - 3..].eq_ignore_ascii_case(b"meg") {
        (&s[..s.len() - 3], 1e6)
    } else {
        let mult = match b.last().map(u8::to_ascii_lowercase) {
            Some(b'f') => 1e-15,
            Some(b'p') => 1e-12,
            Some(b'n') => 1e-9,
            Some(b'u') => 1e-6,
            Some(b'm') => 1e-3,
            Some(b'k') => 1e3,
            Some(b'g') => 1e9,
            _ => 1.0,
        };
        // A suffix is one ASCII letter, so it ends on a char boundary.
        let digits = if mult == 1.0 { s } else { &s[..s.len() - 1] };
        (digits, mult)
    };
    let v = num.parse::<f64>().ok()? * mult;
    v.is_finite().then_some(v)
}

/// A token plus its 1-based byte column within the source line.
#[derive(Clone, Copy)]
struct Tok<'a> {
    text: &'a str,
    col: usize,
}

/// Splits the code portion of a line into whitespace-separated tokens,
/// remembering where each starts; `toks` is reused from line to line.
fn tokenize<'a>(code: &'a str, toks: &mut Vec<Tok<'a>>) {
    toks.clear();
    let mut start: Option<usize> = None;
    for (i, c) in code.char_indices() {
        if c.is_whitespace() {
            if let Some(s) = start.take() {
                toks.push(Tok {
                    text: &code[s..i],
                    col: s + 1,
                });
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        toks.push(Tok {
            text: &code[s..],
            col: s + 1,
        });
    }
}

/// The value of a `key=value` token (`key` lowercase, matched without
/// regard to ASCII case), if `token` is one. A malformed value's message
/// quotes it lowercased.
fn parse_kv(token: &str, key: &str) -> Option<Result<f64>> {
    let b = token.as_bytes();
    let k = key.len();
    if b.len() <= k || b[k] != b'=' || !b[..k].eq_ignore_ascii_case(key.as_bytes()) {
        return None;
    }
    let value = &token[k + 1..];
    Some(scaled_value(value).ok_or_else(|| malformed_value(&value.to_ascii_lowercase())))
}

/// Names already taken by capacitor cards (capacitors are not netlist
/// devices, so the netlist's device index cannot answer for them).
#[derive(Default)]
struct CapNames {
    arena: String,
    spans: Vec<Span>,
    index: NameIndex,
}

impl CapNames {
    /// Records `name`; `false` if it was taken up to ASCII case.
    fn insert(&mut self, name: &str) -> bool {
        let hash = name_hash(name);
        let (arena, spans) = (&self.arena, &self.spans);
        let taken = self.index.find(hash, |i| {
            name_at(arena, spans[i]).eq_ignore_ascii_case(name)
        });
        if taken.is_some() {
            return false;
        }
        self.index.insert(hash, self.spans.len());
        self.spans.push(push_name(&mut self.arena, name));
        true
    }
}

/// Parses a deck into a [`Netlist`].
///
/// Tokens are borrowed slices of `text`, case-insensitive keywords are
/// compared in place, and names go straight into the netlist's arena:
/// a device line allocates its instance name and nothing else.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] on any malformed input, with the
/// 1-based line and column of the offending token in the message.
pub fn parse_netlist(text: &str) -> Result<Netlist> {
    let mut nl = Netlist::new();
    let mut cap_names = CapNames::default();
    let mut tokens: Vec<Tok<'_>> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let bad = |col: usize, why: &str| NumError::InvalidInput {
            context: "parse_netlist",
            detail: format!("line {line_no}, col {col}: {why}"),
        };
        let code = raw.split(';').next().unwrap_or("");
        tokenize(code, &mut tokens);
        let head = match tokens.first() {
            None => continue,
            Some(t) if t.text.starts_with('*') => continue,
            Some(t) => *t,
        };
        // A `?` on a value token should carry that token's location.
        let at = |tok: Tok<'_>, r: Result<f64>| -> Result<f64> {
            r.map_err(|e| bad(tok.col, &e.to_string()))
        };
        // W/L geometry must be a positive, finite length.
        let geom_kv = |tok: Tok<'_>, key: &str, label: &str| -> Option<Result<f64>> {
            parse_kv(tok.text, key).map(|r| match at(tok, r) {
                Ok(v) if v > 0.0 => Ok(v),
                Ok(v) => Err(bad(
                    tok.col,
                    &format!("{label} must be positive, got {v:e}"),
                )),
                Err(e) => Err(e),
            })
        };
        // W= and L= among `fields`, the later of repeated keys winning.
        let geometry = |fields: &[Tok<'_>]| -> Result<(Option<f64>, Option<f64>)> {
            let (mut w, mut l) = (None, None);
            for t in fields {
                if let Some(v) = geom_kv(*t, "w", "W") {
                    w = Some(v?);
                } else if let Some(v) = geom_kv(*t, "l", "L") {
                    l = Some(v?);
                }
            }
            Ok((w, l))
        };
        if head.text.eq_ignore_ascii_case(".end") {
            break;
        }
        if head.text.eq_ignore_ascii_case(".input") {
            for t in &tokens[1..] {
                let id = nl.net(t.text);
                nl.add_primary_input(id);
            }
            continue;
        }
        if head.text.eq_ignore_ascii_case(".output") {
            for t in &tokens[1..] {
                let id = nl.net(t.text);
                nl.add_primary_output(id);
            }
            continue;
        }
        let card = head.text.as_bytes()[0].to_ascii_uppercase();
        let duplicate = match card {
            b'M' | b'W' => nl.has_device_named_ignoring_case(head.text),
            b'C' => !cap_names.insert(head.text),
            _ => false,
        };
        if duplicate {
            return Err(bad(
                head.col,
                &format!("duplicate device name {:?}", head.text),
            ));
        }
        match card {
            b'M' => {
                // M<name> d g s b <nmos|pmos> W=.. L=..
                if tokens.len() < 8 {
                    return Err(bad(head.col, "transistor needs 8 fields"));
                }
                let d = nl.net(tokens[1].text);
                let g = nl.net(tokens[2].text);
                let s = nl.net(tokens[3].text);
                // tokens[4] = body, recorded implicitly by polarity.
                if d == s {
                    return Err(bad(
                        tokens[3].col,
                        &format!("transistor {:?} shorts drain to source", head.text),
                    ));
                }
                let model = tokens[5].text;
                let kind = if model.eq_ignore_ascii_case("nmos") || model.eq_ignore_ascii_case("n")
                {
                    DeviceKind::Nmos
                } else if model.eq_ignore_ascii_case("pmos") || model.eq_ignore_ascii_case("p") {
                    DeviceKind::Pmos
                } else {
                    let other = model.to_ascii_lowercase();
                    return Err(bad(tokens[5].col, &format!("unknown model {other:?}")));
                };
                let (w, l) = match geometry(&tokens[6..])? {
                    (Some(w), Some(l)) => (w, l),
                    _ => return Err(bad(head.col, "transistor needs W= and L=")),
                };
                nl.add_transistor(head.text, kind, g, d, s, Geometry::new(w, l));
            }
            b'W' => {
                // W<name> a b W=.. L=..
                if tokens.len() < 5 {
                    return Err(bad(head.col, "wire needs 5 fields"));
                }
                let a = nl.net(tokens[1].text);
                let b = nl.net(tokens[2].text);
                if a == b {
                    return Err(bad(
                        tokens[2].col,
                        &format!("wire {:?} shorts a net to itself", head.text),
                    ));
                }
                let (w, l) = match geometry(&tokens[3..])? {
                    (Some(w), Some(l)) => (w, l),
                    _ => return Err(bad(head.col, "wire needs W= and L=")),
                };
                nl.add_wire(head.text, a, b, w, l);
            }
            b'C' => {
                // C<name> node 0 value
                if tokens.len() < 4 {
                    return Err(bad(head.col, "capacitor needs 4 fields"));
                }
                let a = nl.net(tokens[1].text);
                let b = nl.net(tokens[2].text);
                let v = at(tokens[3], parse_value(tokens[3].text))?;
                if v < 0.0 {
                    return Err(bad(
                        tokens[3].col,
                        &format!("capacitance must be non-negative, got {v:e}"),
                    ));
                }
                let node = if b == nl.gnd() {
                    a
                } else if a == nl.gnd() {
                    b
                } else {
                    return Err(bad(head.col, "only grounded capacitors are supported"));
                };
                nl.add_cap(node, v);
            }
            _ => return Err(bad(head.col, &format!("unrecognized card {:?}", head.text))),
        }
    }
    nl.validate()?;
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_suffixes() {
        assert!((parse_value("10f").unwrap() - 10e-15).abs() < 1e-22);
        assert!((parse_value("0.35u").unwrap() - 0.35e-6).abs() < 1e-14);
        assert_eq!(parse_value("1MEG").unwrap(), 1e6);
        assert_eq!(parse_value("2k").unwrap(), 2e3);
        assert_eq!(parse_value("3").unwrap(), 3.0);
        assert!(parse_value("oops").is_err());
    }

    #[test]
    fn overflowing_values_are_rejected_not_infinite() {
        assert!(parse_value("1e999").is_err());
        assert!(parse_value("inf").is_err());
        assert!(parse_value("nan").is_err());
        assert!(parse_value("1e308k").is_err()); // finite literal, infinite after scaling
    }

    #[test]
    fn parses_an_inverter_deck() {
        let deck = "\
* simple inverter
MN1 out a 0 0 nmos W=0.5u L=0.35u
MP1 out a vdd vdd pmos W=1u L=0.35u
Cload out 0 10f
.input a
.output out
.end
ignored after end
";
        let nl = parse_netlist(deck).unwrap();
        assert_eq!(nl.devices().len(), 2);
        let out = nl.find_net("out").unwrap();
        assert!((nl.cap(out) - 10e-15).abs() < 1e-24);
        assert_eq!(nl.primary_inputs().len(), 1);
        assert_eq!(nl.primary_outputs(), &[out]);
    }

    #[test]
    fn parses_wires_and_comments() {
        let deck = "\
W1 a b W=0.6u L=40u ; long wire
C1 0 b 5f
";
        let nl = parse_netlist(deck).unwrap();
        assert_eq!(nl.devices().len(), 1);
        let b = nl.find_net("b").unwrap();
        assert!((nl.cap(b) - 5e-15).abs() < 1e-22);
    }

    #[test]
    fn error_reporting_includes_line_numbers() {
        let e = parse_netlist("M1 a b\n").unwrap_err();
        assert!(e.to_string().contains("line 1"));
        let e = parse_netlist("MN1 out a 0 0 nmos W=1u AD=1p\n").unwrap_err();
        assert!(e.to_string().contains("W= and L="));
        let e = parse_netlist("X1 whatever\n").unwrap_err();
        assert!(e.to_string().contains("unrecognized"));
        let e = parse_netlist("MN1 out a 0 0 bjt W=1u L=1u\n").unwrap_err();
        assert!(e.to_string().contains("unknown model"));
        let e = parse_netlist("C1 a b 1f\n").unwrap_err();
        assert!(e.to_string().contains("grounded"));
    }

    #[test]
    fn error_reporting_includes_columns() {
        // The bad model token starts at byte 15 → col 15.
        let e = parse_netlist("MN1 out a 0 0 bjt W=1u L=1u\n").unwrap_err();
        assert!(e.to_string().contains("line 1, col 15"), "{e}");
        // Second line, malformed capacitor value token at col 10.
        let e = parse_netlist("* ok\nC1 out 0 bogus\n").unwrap_err();
        assert!(e.to_string().contains("line 2, col 10"), "{e}");
        // Indented card: the column tracks the token, not the line start.
        let e = parse_netlist("   X1 whatever\n").unwrap_err();
        assert!(e.to_string().contains("line 1, col 4"), "{e}");
    }

    #[test]
    fn geometry_must_be_positive_and_finite() {
        for bad in [
            "MN1 out a 0 0 nmos W=0 L=0.35u\n",
            "MN1 out a 0 0 nmos W=-1u L=0.35u\n",
            "MN1 out a 0 0 nmos W=1u L=1e999\n",
            "W1 a b W=0.6u L=0\n",
        ] {
            let e = parse_netlist(bad).unwrap_err();
            let msg = e.to_string();
            assert!(msg.contains("col"), "{bad:?} -> {msg}");
        }
        let e = parse_netlist("C1 out 0 -5f\n").unwrap_err();
        assert!(e.to_string().contains("non-negative"), "{e}");
    }

    #[test]
    fn structural_errors_carry_locations() {
        let e = parse_netlist("MN1 out a out 0 nmos W=1u L=1u\n").unwrap_err();
        assert!(e.to_string().contains("shorts drain to source"), "{e}");
        assert!(e.to_string().contains("line 1"), "{e}");
        let e = parse_netlist("W1 a a W=0.6u L=40u\n").unwrap_err();
        assert!(e.to_string().contains("shorts a net to itself"), "{e}");
        let deck = "\
MN1 out a 0 0 nmos W=1u L=1u
mn1 z out 0 0 nmos W=1u L=1u
";
        let e = parse_netlist(deck).unwrap_err();
        assert!(e.to_string().contains("duplicate device name"), "{e}");
        assert!(e.to_string().contains("line 2"), "{e}");
    }

    #[test]
    fn arbitrary_garbage_never_panics() {
        for deck in [
            "",
            "\n\n\n",
            "M\n",
            "M1\n",
            "C1\n",
            "W1 a\n",
            ".input\n.output\n.end\n",
            "\u{7f}\u{1b}[31m\n",
            "M1 \t a\tb  c d nmos\n",
            "C1 0 0 1f\n",
            "πβγ δ ε\n",
        ] {
            let _ = parse_netlist(deck);
        }
    }

    #[test]
    fn roundtrip_through_partition() {
        let deck = "\
MN1 x a 0 0 nmos W=0.5u L=0.35u
MP1 x a vdd vdd pmos W=1u L=0.35u
MN2 z x 0 0 nmos W=0.5u L=0.35u
MP2 z x vdd vdd pmos W=1u L=0.35u
.input a
.output z
";
        let nl = parse_netlist(deck).unwrap();
        let parts = crate::partition::partition(&nl).unwrap();
        assert_eq!(parts.len(), 2);
    }
}
