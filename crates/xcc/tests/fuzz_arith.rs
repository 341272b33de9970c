//! Differential fuzzing of the compiler: generate seeded integer expression
//! trees, compile them, run them on the reference interpreter, and compare
//! against direct evaluation in Rust. Catches codegen bugs in precedence,
//! register-window management, immediate peepholes, and branch fusion.

use ccsvm_engine::SplitMix64;
use ccsvm_isa::{FlatMem, FuncOs, Interp};

/// A generated expression: its XC source and its Rust-evaluated value given
/// variables a, b, c.
struct GenExpr {
    src: String,
    eval: i64,
}

/// A value in `lo..hi`.
fn between(rng: &mut SplitMix64, lo: i64, hi: i64) -> i64 {
    lo + rng.next_below((hi - lo) as u64) as i64
}

/// A literal in -100..100 or one of the variables.
fn leaf(rng: &mut SplitMix64, a: i64, b: i64, c: i64) -> GenExpr {
    let (src, eval) = match rng.next_below(4) {
        0 => {
            let v = between(rng, -100, 100);
            (format!("{v}"), v)
        }
        1 => ("a".into(), a),
        2 => ("b".into(), b),
        _ => ("c".into(), c),
    };
    GenExpr { src, eval }
}

/// A tree at most `depth` operators deep; each level is a leaf one time in
/// three.
fn expr(rng: &mut SplitMix64, depth: u32, a: i64, b: i64, c: i64) -> GenExpr {
    if depth == 0 || rng.next_below(3) == 0 {
        return leaf(rng, a, b, c);
    }
    let l = expr(rng, depth - 1, a, b, c);
    let r = expr(rng, depth - 1, a, b, c);
    let (sym, eval): (&str, i64) = match rng.next_below(12) {
        0 => ("+", l.eval.wrapping_add(r.eval)),
        1 => ("-", l.eval.wrapping_sub(r.eval)),
        2 => ("*", l.eval.wrapping_mul(r.eval)),
        // Division by zero follows the ISA's defined semantics.
        3 => ("/", l.eval.checked_div(r.eval).unwrap_or(0)),
        4 => ("%", l.eval.checked_rem(r.eval).unwrap_or(l.eval)),
        5 => ("&", l.eval & r.eval),
        6 => ("|", l.eval | r.eval),
        7 => ("^", l.eval ^ r.eval),
        8 => ("<", (l.eval < r.eval) as i64),
        9 => ("<=", (l.eval <= r.eval) as i64),
        10 => ("==", (l.eval == r.eval) as i64),
        _ => ("!=", (l.eval != r.eval) as i64),
    };
    GenExpr {
        src: format!("({} {sym} {})", l.src, r.src),
        eval,
    }
}

fn run_main(src: &str) -> i64 {
    let p =
        ccsvm_xcc::compile_to_program(src).unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
    let mut mem = FlatMem::new();
    let mut os = FuncOs::new();
    let mut t = Interp::new(p.entry("__start"), 0);
    t.run(&p, &mut mem, &mut os, 10_000_000)
        .unwrap_or_else(|e| panic!("trapped: {e:?}\n{src}"));
    t.regs[1] as i64
}

/// Compiled arithmetic equals Rust arithmetic.
#[test]
fn compiled_expressions_match_rust() {
    let mut rng = SplitMix64::new(0xA217);
    for _ in 0..200 {
        let (a, b, c) = (
            between(&mut rng, -50, 50),
            between(&mut rng, -50, 50),
            between(&mut rng, 1, 50),
        );
        let g = expr(&mut rng, 4, a, b, c);
        let src = format!(
            "_CPU_ fn main() -> int {{
                let a = {a};
                let b = {b};
                let c = {c};
                return {};
            }}",
            g.src
        );
        assert_eq!(run_main(&src), g.eval, "source:\n{src}");
    }
}

/// Comparisons in an if-condition take the right arm (exercises
/// branch-on-compare fusion and logical lowering).
#[test]
fn compiled_conditions_branch_correctly() {
    let mut rng = SplitMix64::new(0xB2A4);
    for _ in 0..100 {
        let (a, b) = (between(&mut rng, -20, 20), between(&mut rng, -20, 20));
        let (sym, truth) = match rng.next_below(6) {
            0 => ("<", a < b),
            1 => ("<=", a <= b),
            2 => (">", a > b),
            3 => (">=", a >= b),
            4 => ("==", a == b),
            _ => ("!=", a != b),
        };
        let src = format!(
            "_CPU_ fn main() -> int {{
                let a = {a};
                let b = {b};
                if (a {sym} b) {{ return 1; }}
                return 0;
            }}"
        );
        assert_eq!(run_main(&src), truth as i64, "source:\n{src}");
    }
}

/// Loop-carried accumulation over seeded bounds.
#[test]
fn compiled_loops_accumulate() {
    let mut rng = SplitMix64::new(0x100B);
    for _ in 0..50 {
        let (n, step) = (between(&mut rng, 0, 200), between(&mut rng, 1, 7));
        let src = format!(
            "_CPU_ fn main() -> int {{
                let s = 0;
                for (let i = 0; i < {n}; i = i + {step}) {{ s = s + i; }}
                return s;
            }}"
        );
        let expect: i64 = (0..n).step_by(step as usize).sum();
        assert_eq!(run_main(&src), expect, "source:\n{src}");
    }
}
