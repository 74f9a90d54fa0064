//! The independent oracle: every summary the benchmark receives is run on
//! seeded random strings and compared with the IR interpreter running the
//! loop itself. Gadget programs run on the gadget interpreter; closed
//! forms are evaluated directly. Nothing is compared with saved output.

use std::collections::HashSet;

use strsum_core::{loop_alphabet, CfValue, Summary};
use strsum_gadgets::interp::{run_bytes, Outcome};
use strsum_ir::interp::{run_loop_function, run_loop_function_null, Interp, Memory, RtVal};
use strsum_ir::Func;

use crate::util::Rng;

/// Random strings checked per (loop, summary) pair.
const STRINGS: usize = 96;
/// Longest random string.
const MAX_LEN: usize = 64;

/// Seeded random C strings of lengths 0..=64: half of the bytes come from
/// the loop's own alphabet (so the interesting branches are taken), half
/// are any non-NUL byte.
pub fn strings(func: &Func, rng: &mut Rng) -> Vec<Vec<u8>> {
    let alphabet: Vec<u8> = loop_alphabet(func)
        .into_iter()
        .filter(|&b| b != 0)
        .collect();
    (0..STRINGS)
        .map(|i| {
            // Cover every length class: the first strings are the short
            // ones the small-model bound already sees, the rest reach 64.
            let len = if i <= 4 { i } else { rng.below(MAX_LEN + 1) };
            (0..len)
                .map(|_| {
                    if !alphabet.is_empty() && rng.below(2) == 0 {
                        alphabet[rng.below(alphabet.len())]
                    } else {
                        1 + rng.below(255) as u8
                    }
                })
                .collect()
        })
        .collect()
}

/// Checks `summary` (encoded bytes as served) against the loop `func`
/// on `inputs`; `Err` names the first disagreement.
pub fn check(func: &Func, summary: &[u8], inputs: &[Vec<u8>]) -> Result<(), String> {
    let decoded = Summary::decode(summary).map_err(|e| format!("undecodable summary: {e}"))?;
    match &decoded {
        Summary::Gadget(_) => {
            if let Ok(None) = run_loop_function_null(func) {
                if run_bytes(summary, None) != Outcome::Null {
                    return Err("differs on the NULL input".to_string());
                }
            }
            for s in inputs {
                let want = match run_loop_function(func, s) {
                    Ok(Some(off)) => Outcome::Ptr(off as usize),
                    Ok(None) => Outcome::Null,
                    Err(_) => Outcome::Invalid,
                };
                let got = run_bytes(summary, Some(s));
                if got != want {
                    return Err(format!(
                        "gadget gives {got:?}, loop gives {want:?} on {s:?}"
                    ));
                }
            }
        }
        Summary::Accumulator(cf) | Summary::Builder(cf) => {
            for s in inputs {
                let got = cf.eval(s);
                if !agrees(func, s, &got) {
                    return Err(format!(
                        "closed form gives {got:?}, the loop differs on {s:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Whether the loop, run by the IR interpreter on `s`, returns what the
/// closed form says and leaves the buffer as the closed form says.
fn agrees(func: &Func, s: &[u8], got: &CfValue) -> bool {
    let mut mem = Memory::new();
    let obj = mem.alloc_cstr(s);
    let Ok(out) = Interp::new(func, &mut mem).run(&[RtVal::Ptr { obj, off: 0 }]) else {
        return false;
    };
    let buf = mem.bytes(obj);
    let contents = &buf[..buf.len() - 1];
    match (got, out) {
        (CfValue::Int(x), Some(RtVal::Int(v))) => *x == v,
        (CfValue::Ptr(n), Some(RtVal::Ptr { obj: o, off })) => {
            o == obj && off == *n as i64 && contents == s
        }
        (CfValue::Mem { bytes, ret }, Some(RtVal::Ptr { obj: o, off })) => {
            o == obj && off == *ret as i64 && contents == bytes.as_slice()
        }
        _ => false,
    }
}

/// Remembers which (loop, summary) pairs already passed, so a summary
/// served a thousand times is interpreted once but every response is
/// still matched against a checked pair. Its strings come from its own
/// seeded stream.
pub struct Verdicts {
    passed: HashSet<(usize, Vec<u8>)>,
    rng: Rng,
}

impl Verdicts {
    pub fn new(rng: Rng) -> Verdicts {
        Verdicts {
            passed: HashSet::new(),
            rng,
        }
    }

    /// Checks one served answer for loop number `loop_ix`.
    pub fn check(&mut self, loop_ix: usize, func: &Func, summary: &[u8]) -> Result<(), String> {
        let key = (loop_ix, summary.to_vec());
        if self.passed.contains(&key) {
            return Ok(());
        }
        check(func, summary, &strings(func, &mut self.rng))?;
        self.passed.insert(key);
        Ok(())
    }
}
