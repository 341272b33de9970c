//! `xcc` — the xthreads compilation toolchain (paper §4.2, Figure 2).
//!
//! The paper's toolchain compiles a single source file containing both CPU
//! and MTTOP functions into one executable whose text section holds both
//! kinds of code. `xcc` reproduces that pipeline for **XC**, a small C-like
//! language:
//!
//! ```text
//! struct Args { v1: int*; v2: int*; sum: int*; done: int*; }
//!
//! _MTTOP_ fn add(tid: int, args: Args*) {
//!     args->sum[tid] = args->v1[tid] + args->v2[tid];
//! }
//!
//! _CPU_ fn main() {
//!     let a: Args* = malloc(sizeof(Args));
//!     a->v1 = malloc(256 * 8);
//!     // ...
//! }
//! ```
//!
//! Language summary:
//!
//! * Types: `int` (i64), `float` (f64), pointers `T*`, and `struct`s of
//!   8-byte fields (only used behind pointers). Pointer arithmetic and
//!   indexing scale by the pointee size, C-style.
//! * Items: `struct` definitions, `const NAME = <int-expr>;`,
//!   `global name: type;` (8-byte globals in the data segment), and
//!   functions marked `_CPU_`, `_MTTOP_`, or unmarked (callable from both —
//!   the hardware ISA is shared, the markers are documentation plus a check
//!   that CPU-only builtins don't leak into MTTOP code).
//! * Statements: `let`, assignment, `if`/`else`, `while`, `for`, `return`,
//!   `break`, `continue`, expression statements, blocks.
//! * Expressions: C precedence, `&&`/`||` short-circuit, casts `as int` /
//!   `as float`, function names as values (function pointers), `sizeof(T)`.
//! * Builtins: `malloc`, `free`, `print_int`, `print_float`, `mifd_launch`,
//!   `spawn_cthread`, `munmap`, `exit_thread` (CPU only); `atomic_add`,
//!   `atomic_cas`, `atomic_inc`, `atomic_dec`, `atomic_exch`, `fence`,
//!   `sqrt`, `fabsf`, `fminf`, `fmaxf` (everywhere).
//!
//! Code generation is deliberately simple and **identical for CPU and MTTOP
//! functions** (unoptimized stack-frame codegen, expression evaluation in a
//! register window): the paper's comparison depends on both sides being
//! compiled symmetrically, not on compiler quality.
//!
//! The output of [`compile`] is HIR assembly text; [`compile_to_program`]
//! pipes it through `ccsvm_isa::assemble` and attaches the data-segment
//! size, producing a runnable [`ccsvm_isa::Program`].

#![forbid(unsafe_code)]

mod ast;
mod codegen;
mod lexer;
mod parser;

pub use ast::{FnKind, Type};
pub use codegen::CompiledInfo;

use ccsvm_isa::Program;
use std::error::Error;
use std::fmt;

/// A compilation error with its 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileError {
    /// 1-based line number (0 when not attributable to a line).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for CompileError {}

pub(crate) fn cerr<T>(line: usize, message: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError {
        line,
        message: message.into(),
    })
}

/// Compiles XC source to HIR assembly text.
///
/// # Errors
///
/// Returns the first [`CompileError`] (lexing, parsing, type or codegen).
pub fn compile(source: &str) -> Result<(String, CompiledInfo), CompileError> {
    let tokens = lexer::lex(source)?;
    let items = parser::parse(tokens)?;
    codegen::generate(&items)
}

/// Compiles XC source all the way to an executable [`Program`].
///
/// # Errors
///
/// Returns a [`CompileError`]; assembler failures on generated code are
/// compiler bugs and reported as line-0 errors.
///
/// # Examples
///
/// ```
/// let p = ccsvm_xcc::compile_to_program(
///     "_CPU_ fn main() { let x = 1 + 2; }",
/// ).unwrap();
/// assert!(p.lookup("main").is_some());
/// ```
pub fn compile_to_program(source: &str) -> Result<Program, CompileError> {
    let (asm, info) = compile(source)?;
    let mut program = ccsvm_isa::assemble(&asm).map_err(|e| CompileError {
        line: 0,
        message: format!("internal: generated assembly failed: {e}\n{asm}"),
    })?;
    program.globals_size = info.globals_size;
    Ok(program)
}
