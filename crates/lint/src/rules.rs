//! The lint rules. `persist-ordering` consumes the (cfg(test)-stripped) token
//! stream of one file and appends [`Finding`]s; `event-coverage` correlates
//! across files.

use crate::lexer::{TokKind, Token};
use crate::{Finding, RULE_EVENT_COVERAGE, RULE_PERSIST};

// ---------------------------------------------------------------------------
// persist-ordering
// ---------------------------------------------------------------------------

/// Methods whose call releases information onto the network. A flush must
/// precede any of these once an ordering-critical record was appended.
const SEND_FAMILY: &[&str] = &[
    "send",
    "send_plain",
    "send_dirty",
    "send_reply",
    "send_with_ack",
    "send_to",
    "multicast_plain",
    "respond",
    "reply",
];

/// Enforces WAL persist ordering at protocol barriers: any function that
/// appends an ordering-critical record (a 2PC [`TxnMarker`], a shard
/// [`MigrationMarker`], or a durable completion) must flush it before any
/// network send in the same body — otherwise a crash in the window leaves
/// remote state ahead of local durable state (the torn-tail asymmetry PR 6
/// audited by hand). The server logs every record through the same two
/// halves, and they are the one spelling the rule knows: `wal_hand_over` is
/// the append, `wal_flush_and_apply` the flush.
pub fn persist_ordering(tokens: &[Token], findings: &mut Vec<Finding>) {
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("fn") {
            if let Some((body_start, body_end)) = fn_body(tokens, i) {
                check_fn_persist(&tokens[body_start..body_end], findings);
                // Continue *inside* the body too (nested fns are rare but
                // cheap to cover) — advance past the `fn` keyword only.
            }
        }
        i += 1;
    }
}

/// Finds the body of the fn whose `fn` keyword sits at `i`; returns token
/// index range (exclusive of the braces).
fn fn_body(tokens: &[Token], i: usize) -> Option<(usize, usize)> {
    let mut j = i + 1;
    let mut paren = 0i32;
    // Scan the signature for the opening brace at paren depth 0.
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct(';') && paren == 0 {
            return None; // trait method declaration without a body
        } else if t.is_punct('}') && paren == 0 {
            return None; // `fn` pointer type inside a struct/enum, not an item
        } else if t.is_punct('{') && paren == 0 {
            break;
        }
        j += 1;
    }
    if j >= tokens.len() {
        return None;
    }
    let start = j + 1;
    let mut depth = 1i32;
    j += 1;
    while j < tokens.len() {
        if tokens[j].is_punct('{') {
            depth += 1;
        } else if tokens[j].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some((start, j));
            }
        }
        j += 1;
    }
    None
}

fn check_fn_persist(body: &[Token], findings: &mut Vec<Finding>) {
    // Ordering-critical marker types present in this body?
    let critical = body.iter().enumerate().any(|(k, t)| {
        t.is_ident("TxnMarker")
            || t.is_ident("MigrationMarker")
            || (t.is_ident("WalOp")
                && body.get(k + 1).is_some_and(|t| t.is_punct(':'))
                && body.get(k + 2).is_some_and(|t| t.is_punct(':'))
                && body.get(k + 3).is_some_and(|t| {
                    t.is_ident("Txn") || t.is_ident("Completed") || t.is_ident("Migration")
                })
                && body.get(k + 4).is_some_and(|t| t.is_punct('(')))
    });
    if !critical {
        return;
    }
    // `.name(` at `k`, for a `name` among `names`.
    let method_at = |k: usize, names: &[&str]| {
        body.get(k).is_some_and(|t| t.is_punct('.'))
            && body
                .get(k + 1)
                .is_some_and(|t| t.kind == TokKind::Ident && names.contains(&t.text.as_str()))
            && body.get(k + 2).is_some_and(|t| t.is_punct('('))
    };
    for a in (0..body.len()).filter(|&k| method_at(k, &["wal_hand_over"])) {
        let flush_at = (a..body.len()).find(|&k| method_at(k, &["wal_flush_and_apply"]));
        let send_at = (a..body.len()).find(|&k| method_at(k, SEND_FAMILY));
        match (flush_at, send_at) {
            (None, _) => findings.push(Finding::new(
                RULE_PERSIST,
                body[a].line,
                "ordering-critical WAL append (TxnMarker / MigrationMarker / durable \
                 completion) is never flushed in this function; a crash in the window \
                 can lose the record after its effects escaped"
                    .into(),
            )),
            (Some(f), Some(s)) if s < f => findings.push(Finding::new(
                RULE_PERSIST,
                body[s + 1].line,
                format!(
                    "network send before the flush of the ordering-critical WAL append \
                     on line {}; flush at the protocol barrier first",
                    body[a].line
                ),
            )),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// event-coverage
// ---------------------------------------------------------------------------

/// One `EventKind` enum variant, by name and defining line.
#[derive(Debug, Clone)]
pub struct EventVariant {
    /// Variant name.
    pub name: String,
    /// 1-based line of the variant in the obs source.
    pub line: u32,
}

/// Extracts the variants of `pub enum EventKind { … }` from the obs crate's
/// token stream.
pub fn event_kind_variants(tokens: &[Token]) -> Vec<EventVariant> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("enum") && tokens.get(i + 1).is_some_and(|t| t.is_ident("EventKind"))
        {
            // Find the `{` (skipping generics, none expected).
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct('{') {
                j += 1;
            }
            let mut depth = 0i32;
            let mut expect_variant = true;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        return out;
                    }
                    if depth == 1 {
                        // closed a struct/tuple variant's field list
                        expect_variant = false;
                    }
                } else if depth == 1 {
                    if t.is_punct(',') {
                        expect_variant = true;
                    } else if t.is_punct('#') {
                        // attribute on the next variant: skip `#[…]`
                        let mut d = 0i32;
                        while j < tokens.len() {
                            if tokens[j].is_punct('[') {
                                d += 1;
                            } else if tokens[j].is_punct(']') {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            j += 1;
                        }
                    } else if expect_variant && t.kind == TokKind::Ident {
                        out.push(EventVariant {
                            name: t.text.clone(),
                            line: t.line,
                        });
                        expect_variant = false;
                    }
                }
                j += 1;
            }
            return out;
        }
        i += 1;
    }
    out
}

/// Collects the set of `EventKind::Variant` constructions in a token stream
/// (an emission site, when the stream comes from outside `crates/obs`).
pub fn event_kind_uses(tokens: &[Token], into: &mut std::collections::BTreeSet<String>) {
    for k in 0..tokens.len() {
        if tokens[k].is_ident("EventKind")
            && tokens.get(k + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(k + 2).is_some_and(|t| t.is_punct(':'))
        {
            if let Some(v) = tokens.get(k + 3) {
                if v.kind == TokKind::Ident {
                    into.insert(v.text.clone());
                }
            }
        }
    }
}

/// Reports every [`EventKind`] variant that is never constructed outside the
/// obs crate: an event vocabulary entry nobody emits is a blind spot —
/// exactly where a divergence hides (the recovery replay path taught us
/// that).
pub fn event_coverage(
    variants: &[EventVariant],
    used: &std::collections::BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    for v in variants {
        if !used.contains(&v.name) {
            findings.push(Finding::new(
                RULE_EVENT_COVERAGE,
                v.line,
                format!(
                    "EventKind::{} is never emitted outside crates/obs; either \
                     instrument the protocol site it names or remove the variant",
                    v.name
                ),
            ));
        }
    }
}
