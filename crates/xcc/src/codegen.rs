//! XC → HIR assembly code generation.
//!
//! Deliberately simple and identical for CPU and MTTOP functions: stack-frame
//! locals, expression evaluation in the `r8`–`r27` register window, a single
//! epilogue per function. Two small peepholes (immediate ALU operands and
//! branch-on-compare fusion) keep the generated instruction counts sane for
//! simulation without giving either core type an advantage.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::ast::*;
use crate::{cerr, CompileError};

/// Size of every scalar slot (ints, floats, pointers, struct fields).
const WORD: u64 = 8;
/// Evaluation registers r8..=r17.
const EVAL_BASE: usize = 8;
const EVAL_REGS: usize = 10;
/// Callee-saved registers r18..=r27 caching non-address-taken locals.
const LOCAL_REG_FIRST: u8 = 18;
const LOCAL_REG_LAST: u8 = 27;

/// Data produced alongside the assembly text.
#[derive(Clone, Debug, Default)]
pub struct CompiledInfo {
    /// Bytes of global data segment used.
    pub globals_size: u64,
    /// Global name → offset within the data segment.
    pub globals: HashMap<String, u64>,
    /// Function name → kind.
    pub functions: HashMap<String, FnKind>,
}

#[derive(Clone, Debug)]
struct FnSig {
    kind: FnKind,
    params: Vec<Type>,
    ret: Type,
}

struct StructInfo {
    /// field name → (offset bytes, type).
    fields: HashMap<String, (u64, Type)>,
    size: u64,
}

pub(crate) fn generate(items: &[Item]) -> Result<(String, CompiledInfo), CompileError> {
    let mut cg = Codegen::collect(items)?;
    for item in items {
        if let Item::Fn(f) = item {
            cg.function(f)?;
        }
    }
    // Runtime stubs: `__start` is the CPU process entry (calls `main`, then
    // exits the thread with main's return value preserved in r1); `__kexit`
    // is the return address given to launched MTTOP threads and spawned CPU
    // threads, so a plain `return` from a kernel terminates the thread.
    if cg.fns.contains_key("main") {
        cg.emit_label("__start");
        cg.emit("call main");
        cg.emit("exit");
    }
    cg.emit_label("__kexit");
    cg.emit("exit");
    let info = CompiledInfo {
        globals_size: cg.globals_size,
        globals: cg.globals.clone(),
        functions: cg.fns.iter().map(|(k, v)| (k.clone(), v.kind)).collect(),
    };
    Ok((cg.out, info))
}

struct Codegen {
    structs: HashMap<String, StructInfo>,
    consts: HashMap<String, i64>,
    globals: HashMap<String, u64>,
    globals_size: u64,
    fns: HashMap<String, FnSig>,
    out: String,
    labels: usize,
}

/// Where a local's value lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Place {
    /// A callee-saved register (locals whose address is never taken).
    Reg(u8),
    /// A frame slot at `fp + offset`.
    Frame(u64),
}

/// A local variable binding.
#[derive(Clone, Debug)]
struct Local {
    place: Place,
    ty: Type,
}

struct FnCtx {
    kind: FnKind,
    ret: Type,
    scopes: Vec<HashMap<String, Local>>,
    next_slot: u64,
    max_slot: u64,
    /// Free callee-saved registers (popped for new locals).
    reg_pool: Vec<u8>,
    /// Callee-saved registers this function ever used.
    used_regs: std::collections::BTreeSet<u8>,
    /// Names whose address is taken somewhere in the function.
    addr_taken: std::collections::HashSet<String>,
    epilogue: String,
    /// (continue-label, break-label) stack.
    loops: Vec<(String, String)>,
}

impl FnCtx {
    fn find(&self, name: &str) -> Option<&Local> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    /// Chooses a home for a new local of `name`.
    fn place_for(&mut self, name: &str) -> Place {
        if !self.addr_taken.contains(name) {
            if let Some(r) = self.reg_pool.pop() {
                self.used_regs.insert(r);
                return Place::Reg(r);
            }
        }
        let p = Place::Frame(self.next_slot * WORD);
        self.next_slot += 1;
        self.max_slot = self.max_slot.max(self.next_slot);
        p
    }

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    /// Pops a scope, returning its registers to the pool and its frame slots
    /// to the allocator. Registers go back highest first, so the lowest is
    /// reused first whatever order the scope's map iterates in: one source
    /// always compiles to one text.
    fn pop_scope(&mut self) {
        let scope = self.scopes.pop().expect("scope");
        let mut regs: Vec<u8> = scope
            .values()
            .filter_map(|local| match local.place {
                Place::Reg(r) => Some(r),
                Place::Frame(_) => None,
            })
            .collect();
        regs.sort_unstable_by(|a, b| b.cmp(a));
        self.next_slot -= (scope.len() - regs.len()) as u64;
        self.reg_pool.extend(regs);
    }
}

impl Codegen {
    fn collect(items: &[Item]) -> Result<Codegen, CompileError> {
        let mut cg = Codegen {
            structs: HashMap::new(),
            consts: HashMap::new(),
            globals: HashMap::new(),
            globals_size: 0,
            fns: HashMap::new(),
            out: String::new(),
            labels: 0,
        };
        // Structs first (consts may sizeof them).
        for item in items {
            if let Item::Struct(s) = item {
                if cg.structs.contains_key(&s.name) {
                    return cerr(0, format!("duplicate struct `{}`", s.name));
                }
                let mut fields = HashMap::new();
                for (i, (fname, fty)) in s.fields.iter().enumerate() {
                    if matches!(fty, Type::Struct(_)) {
                        return cerr(
                            0,
                            format!(
                                "field `{}.{fname}` must be a scalar or pointer (nest structs by pointer)",
                                s.name
                            ),
                        );
                    }
                    if fields
                        .insert(fname.clone(), (i as u64 * WORD, fty.clone()))
                        .is_some()
                    {
                        return cerr(0, format!("duplicate field `{}.{fname}`", s.name));
                    }
                }
                cg.structs.insert(
                    s.name.clone(),
                    StructInfo {
                        fields,
                        size: s.fields.len() as u64 * WORD,
                    },
                );
            }
        }
        for item in items {
            match item {
                Item::Struct(_) => {}
                Item::Const { line, name, value } => {
                    let v = cg.fold_const(value, *line)?;
                    if cg.consts.insert(name.clone(), v).is_some() {
                        return cerr(*line, format!("duplicate const `{name}`"));
                    }
                }
                Item::Global { line, name, ty } => {
                    if matches!(ty, Type::Struct(_)) {
                        return cerr(*line, "globals must be scalars or pointers");
                    }
                    if cg.globals.contains_key(name) {
                        return cerr(*line, format!("duplicate global `{name}`"));
                    }
                    cg.globals.insert(name.clone(), cg.globals_size);
                    cg.globals_size += WORD;
                }
                Item::Fn(f) => {
                    if is_builtin(&f.name) {
                        return cerr(f.line, format!("`{}` is a builtin", f.name));
                    }
                    if f.params.len() > 6 {
                        return cerr(f.line, "at most 6 parameters supported");
                    }
                    let sig = FnSig {
                        kind: f.kind,
                        params: f.params.iter().map(|(_, t)| t.clone()).collect(),
                        ret: f.ret.clone(),
                    };
                    if cg.fns.insert(f.name.clone(), sig).is_some() {
                        return cerr(f.line, format!("duplicate function `{}`", f.name));
                    }
                }
            }
        }
        Ok(cg)
    }

    fn fold_const(&self, e: &Expr, line: usize) -> Result<i64, CompileError> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok(*v),
            ExprKind::Name(n) => self.consts.get(n).copied().ok_or_else(|| CompileError {
                line,
                message: format!("`{n}` is not a constant"),
            }),
            ExprKind::SizeOf(t) => Ok(self.sizeof_type(t, line)? as i64),
            ExprKind::Un(UnOp::Neg, inner) => Ok(-self.fold_const(inner, line)?),
            ExprKind::Bin(op, a, b) => {
                let (a, b) = (self.fold_const(a, line)?, self.fold_const(b, line)?);
                Ok(match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => {
                        if b == 0 {
                            return cerr(line, "constant division by zero");
                        }
                        a / b
                    }
                    BinOp::Rem => {
                        if b == 0 {
                            return cerr(line, "constant remainder by zero");
                        }
                        a % b
                    }
                    BinOp::Shl => a << (b & 63),
                    BinOp::Shr => ((a as u64) >> (b & 63)) as i64,
                    BinOp::And => a & b,
                    BinOp::Or => a | b,
                    BinOp::Xor => a ^ b,
                    _ => return cerr(line, "unsupported operator in constant"),
                })
            }
            _ => cerr(line, "unsupported constant expression"),
        }
    }

    /// Size of the object a `T*` points at (for pointer arithmetic).
    fn sizeof_pointee(&self, ty: &Type, line: usize) -> Result<u64, CompileError> {
        match ty {
            Type::Ptr(inner) => self.sizeof_type(inner, line),
            _ => cerr(line, format!("`{ty}` is not a pointer")),
        }
    }

    fn sizeof_type(&self, ty: &Type, line: usize) -> Result<u64, CompileError> {
        match ty {
            Type::Int | Type::Float | Type::Ptr(_) => Ok(WORD),
            Type::Struct(name) => {
                self.structs
                    .get(name)
                    .map(|s| s.size)
                    .ok_or_else(|| CompileError {
                        line,
                        message: format!("unknown struct `{name}`"),
                    })
            }
        }
    }

    fn label(&mut self, hint: &str) -> String {
        self.labels += 1;
        format!(".L{}_{hint}", self.labels)
    }

    fn emit(&mut self, text: &str) {
        let _ = writeln!(self.out, "  {text}");
    }

    fn emit_label(&mut self, l: &str) {
        let _ = writeln!(self.out, "{l}:");
    }

    // ----- functions ------------------------------------------------------

    fn function(&mut self, f: &FnDef) -> Result<(), CompileError> {
        let mut addr_taken = std::collections::HashSet::new();
        collect_addr_taken_stmts(&f.body, &mut addr_taken);
        let mut ctx = FnCtx {
            kind: f.kind,
            ret: f.ret.clone(),
            scopes: vec![HashMap::new()],
            next_slot: 0,
            max_slot: 0,
            reg_pool: (LOCAL_REG_FIRST..=LOCAL_REG_LAST).rev().collect(),
            used_regs: std::collections::BTreeSet::new(),
            addr_taken,
            epilogue: self.label("epi"),
            loops: Vec::new(),
        };

        // Pass 1: emit the body into a side buffer. Local homes are chosen as
        // declarations appear; the frame size and callee-saved set are only
        // known afterwards, so the prologue is emitted second.
        let outer = std::mem::take(&mut self.out);
        for (i, (pname, pty)) in f.params.iter().enumerate() {
            let place = ctx.place_for(pname);
            match place {
                Place::Reg(r) => self.emit(&format!("mv r{r}, r{}", i + 1)),
                Place::Frame(off) => self.emit(&format!("st8 r{}, {off}(r29)", i + 1)),
            }
            let local = Local {
                place,
                ty: pty.clone(),
            };
            if ctx.scopes[0].insert(pname.clone(), local).is_some() {
                return cerr(f.line, format!("duplicate parameter `{pname}`"));
            }
        }
        self.block(&mut ctx, &f.body)?;
        // Implicit `return 0` for fall-through.
        self.emit("li r1, 0");
        let body = std::mem::replace(&mut self.out, outer);

        // Pass 2: prologue (ra, fp, callee saves), body, epilogue.
        let saves: Vec<u8> = ctx.used_regs.iter().copied().collect();
        let frame = (16 + (saves.len() as u64 + ctx.max_slot) * WORD).next_multiple_of(16);
        self.emit_label(&f.name);
        self.emit(&format!("sub r30, r30, {frame}"));
        self.emit(&format!("st8 r31, {}(r30)", frame - 8));
        self.emit(&format!("st8 r29, {}(r30)", frame - 16));
        for (k, r) in saves.iter().enumerate() {
            self.emit(&format!("st8 r{r}, {}(r30)", frame - 24 - 8 * k as u64));
        }
        self.emit("mv r29, r30");
        self.out.push_str(&body);
        let epi = ctx.epilogue.clone();
        self.emit_label(&epi);
        for (k, r) in saves.iter().enumerate() {
            self.emit(&format!("ld8 r{r}, {}(r30)", frame - 24 - 8 * k as u64));
        }
        self.emit(&format!("ld8 r31, {}(r30)", frame - 8));
        self.emit(&format!("ld8 r29, {}(r30)", frame - 16));
        self.emit(&format!("add r30, r30, {frame}"));
        self.emit("ret");
        Ok(())
    }

    fn block(&mut self, ctx: &mut FnCtx, stmts: &[Stmt]) -> Result<(), CompileError> {
        ctx.push_scope();
        for s in stmts {
            self.stmt(ctx, s)?;
        }
        ctx.pop_scope();
        Ok(())
    }

    fn stmt(&mut self, ctx: &mut FnCtx, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Let {
                line,
                name,
                ty,
                init,
            } => {
                let ity = self.expr(ctx, init, 0)?;
                let final_ty = match ty {
                    Some(declared) => {
                        if !compatible(declared, &ity) {
                            return cerr(
                                *line,
                                format!("cannot initialize `{declared}` from `{ity}`"),
                            );
                        }
                        declared.clone()
                    }
                    None => ity,
                };
                if matches!(final_ty, Type::Struct(_)) {
                    return cerr(*line, "struct values are not first-class; use a pointer");
                }
                let place = ctx.place_for(name);
                match place {
                    Place::Reg(r) => self.emit(&format!("mv r{r}, r8")),
                    Place::Frame(off) => self.emit(&format!("st8 r8, {off}(r29)")),
                }
                ctx.scopes.last_mut().expect("scope").insert(
                    name.clone(),
                    Local {
                        place,
                        ty: final_ty,
                    },
                );
                Ok(())
            }
            Stmt::Assign {
                line,
                target,
                value,
            } => self.assign(ctx, target, value, *line),
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let else_l = self.label("else");
                let end_l = self.label("endif");
                self.branch_if_false(ctx, cond, &else_l)?;
                self.block(ctx, then_blk)?;
                if else_blk.is_empty() {
                    self.emit_label(&else_l);
                } else {
                    self.emit(&format!("jmp {end_l}"));
                    self.emit_label(&else_l);
                    self.block(ctx, else_blk)?;
                    self.emit_label(&end_l);
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                let head = self.label("while");
                let end = self.label("endwhile");
                self.emit_label(&head);
                self.branch_if_false(ctx, cond, &end)?;
                ctx.loops.push((head.clone(), end.clone()));
                self.block(ctx, body)?;
                ctx.loops.pop();
                self.emit(&format!("jmp {head}"));
                self.emit_label(&end);
                Ok(())
            }
            Stmt::Return { line, value } => {
                if let Some(v) = value {
                    let ty = self.expr(ctx, v, 0)?;
                    if !compatible(&ctx.ret, &ty) {
                        return cerr(
                            *line,
                            format!("return type mismatch: expected `{}`, got `{ty}`", ctx.ret),
                        );
                    }
                    self.emit("mv r1, r8");
                } else {
                    self.emit("li r1, 0");
                }
                let epi = ctx.epilogue.clone();
                self.emit(&format!("jmp {epi}"));
                Ok(())
            }
            Stmt::Break { line } => match ctx.loops.last() {
                Some((_, brk)) => {
                    let brk = brk.clone();
                    self.emit(&format!("jmp {brk}"));
                    Ok(())
                }
                None => cerr(*line, "`break` outside a loop"),
            },
            Stmt::Continue { line } => match ctx.loops.last() {
                Some((cont, _)) => {
                    let cont = cont.clone();
                    self.emit(&format!("jmp {cont}"));
                    Ok(())
                }
                None => cerr(*line, "`continue` outside a loop"),
            },
            Stmt::ExprStmt(e) => {
                self.expr(ctx, e, 0)?;
                Ok(())
            }
            Stmt::Block(b) => self.block(ctx, b),
        }
    }

    /// Emits a branch to `target` when `cond` is false, fusing integer
    /// comparisons into single branch instructions.
    fn branch_if_false(
        &mut self,
        ctx: &mut FnCtx,
        cond: &Expr,
        target: &str,
    ) -> Result<(), CompileError> {
        if let ExprKind::Bin(op, a, b) = &cond.kind {
            let fused = match op {
                BinOp::Lt => Some("bge"),
                BinOp::Ge => Some("blt"),
                BinOp::Gt => Some("bge"), // swapped operands below
                BinOp::Le => Some("blt"), // swapped operands below
                BinOp::Eq => Some("bne"),
                BinOp::Ne => Some("beq"),
                _ => None,
            };
            if let Some(mn) = fused {
                let ta = self.expr(ctx, a, 0)?;
                let tb = self.expr(ctx, b, 1)?;
                if ta.is_int_like() && tb.is_int_like() {
                    let (x, y) = match op {
                        BinOp::Gt | BinOp::Le => ("r9", "r8"),
                        _ => ("r8", "r9"),
                    };
                    self.emit(&format!("{mn} {x}, {y}, {target}"));
                    return Ok(());
                }
                // Float comparison: fall through to materialized flag below,
                // re-using the already-evaluated operands.
                let flag = match op {
                    BinOp::Lt => "flt r8, r8, r9",
                    BinOp::Le => "fle r8, r8, r9",
                    BinOp::Gt => "flt r8, r9, r8",
                    BinOp::Ge => "fle r8, r9, r8",
                    BinOp::Eq => "feq r8, r8, r9",
                    BinOp::Ne => "feq r8, r8, r9",
                    _ => unreachable!(),
                };
                if !matches!(ta, Type::Float) || !matches!(tb, Type::Float) {
                    return cerr(cond.line, "comparison operands must both be int or float");
                }
                self.emit(flag);
                if matches!(op, BinOp::Ne) {
                    self.emit(&format!("bne r8, r0, {target}"));
                } else {
                    self.emit(&format!("beq r8, r0, {target}"));
                }
                return Ok(());
            }
        }
        let t = self.expr(ctx, cond, 0)?;
        if !t.is_int_like() {
            return cerr(cond.line, "condition must be an integer");
        }
        self.emit(&format!("beq r8, r0, {target}"));
        Ok(())
    }

    fn assign(
        &mut self,
        ctx: &mut FnCtx,
        target: &Expr,
        value: &Expr,
        line: usize,
    ) -> Result<(), CompileError> {
        // Fast path: plain local.
        if let ExprKind::Name(n) = &target.kind {
            if let Some(local) = ctx.find(n).cloned() {
                let vt = self.expr(ctx, value, 0)?;
                if !compatible(&local.ty, &vt) {
                    return cerr(line, format!("cannot assign `{vt}` to `{}`", local.ty));
                }
                match local.place {
                    Place::Reg(r) => self.emit(&format!("mv r{r}, r8")),
                    Place::Frame(off) => self.emit(&format!("st8 r8, {off}(r29)")),
                }
                return Ok(());
            }
        }
        let vt = self.expr(ctx, value, 0)?;
        let et = self.lvalue_addr(ctx, target, 1)?;
        if !compatible(&et, &vt) {
            return cerr(line, format!("cannot assign `{vt}` to `{et}`"));
        }
        self.emit("st8 r8, 0(r9)");
        Ok(())
    }

    /// Computes the address of an lvalue into `r(8+d)`; returns the element
    /// type stored there.
    fn lvalue_addr(&mut self, ctx: &mut FnCtx, e: &Expr, d: usize) -> Result<Type, CompileError> {
        let rd = reg(d)?;
        match &e.kind {
            ExprKind::Name(n) => {
                if let Some(local) = ctx.find(n).cloned() {
                    let Place::Frame(off) = local.place else {
                        return cerr(
                            e.line,
                            format!("internal: address taken of register local `{n}`"),
                        );
                    };
                    self.emit(&format!("add {rd}, r29, {off}"));
                    return Ok(local.ty);
                }
                if let Some(&off) = self.globals.get(n) {
                    self.emit(&format!("li {rd}, {}", ccsvm_isa::abi::DATA_BASE + off));
                    return Ok(Type::Int); // globals are declared scalars
                }
                cerr(e.line, format!("`{n}` is not an lvalue"))
            }
            ExprKind::Un(UnOp::Deref, p) => {
                let pt = self.expr(ctx, p, d)?;
                match pt {
                    Type::Ptr(inner) if !matches!(*inner, Type::Struct(_)) => Ok(*inner),
                    Type::Int => Ok(Type::Int), // untyped pointer
                    _ => cerr(e.line, format!("cannot dereference `{pt}`")),
                }
            }
            ExprKind::Index(base, idx) => {
                let (elem, _) = self.index_addr(ctx, base, idx, d)?;
                match elem {
                    Type::Struct(_) => cerr(e.line, "cannot assign whole structs"),
                    t => Ok(t),
                }
            }
            ExprKind::Field(base, fname) => self.field_addr(ctx, base, fname, d, e.line),
            _ => cerr(e.line, "expression is not an lvalue"),
        }
    }

    /// Leaves `base + idx * sizeof(elem)` in `r(8+d)`.
    fn index_addr(
        &mut self,
        ctx: &mut FnCtx,
        base: &Expr,
        idx: &Expr,
        d: usize,
    ) -> Result<(Type, ()), CompileError> {
        let rd = reg(d)?;
        let bt = self.expr(ctx, base, d)?;
        let elem = match &bt {
            Type::Ptr(inner) => (**inner).clone(),
            Type::Int => Type::Int, // untyped pointer indexes as int words
            _ => return cerr(base.line, format!("cannot index `{bt}`")),
        };
        let size = self.sizeof_type(&elem, base.line)?;
        if let ExprKind::IntLit(c) = idx.kind {
            if c != 0 {
                self.emit(&format!("add {rd}, {rd}, {}", c * size as i64));
            }
            return Ok((elem, ()));
        }
        let ri = reg(d + 1)?;
        let it = self.expr(ctx, idx, d + 1)?;
        if !it.is_int_like() {
            return cerr(idx.line, "index must be an integer");
        }
        if size != 1 {
            self.emit(&format!("mul {ri}, {ri}, {size}"));
        }
        self.emit(&format!("add {rd}, {rd}, {ri}"));
        Ok((elem, ()))
    }

    fn field_addr(
        &mut self,
        ctx: &mut FnCtx,
        base: &Expr,
        fname: &str,
        d: usize,
        line: usize,
    ) -> Result<Type, CompileError> {
        let rd = reg(d)?;
        let bt = self.expr(ctx, base, d)?;
        let sname = match &bt {
            Type::Ptr(inner) => match &**inner {
                Type::Struct(s) => s.clone(),
                other => return cerr(line, format!("`->` on non-struct pointer `{other}*`")),
            },
            other => return cerr(line, format!("`->` needs a struct pointer, got `{other}`")),
        };
        let info = self.structs.get(&sname).ok_or_else(|| CompileError {
            line,
            message: format!("unknown struct `{sname}`"),
        })?;
        let (off, fty) = info
            .fields
            .get(fname)
            .cloned()
            .ok_or_else(|| CompileError {
                line,
                message: format!("struct `{sname}` has no field `{fname}`"),
            })?;
        if off != 0 {
            self.emit(&format!("add {rd}, {rd}, {off}"));
        }
        Ok(fty)
    }

    // ----- expressions ----------------------------------------------------

    /// Evaluates `e` into `r(8+d)`, returning its type.
    fn expr(&mut self, ctx: &mut FnCtx, e: &Expr, d: usize) -> Result<Type, CompileError> {
        let rd = reg(d)?;
        match &e.kind {
            ExprKind::IntLit(v) => {
                self.emit(&format!("li {rd}, {v}"));
                Ok(Type::Int)
            }
            ExprKind::FloatLit(v) => {
                self.emit(&format!("lif {rd}, {v:?}"));
                Ok(Type::Float)
            }
            ExprKind::SizeOf(t) => {
                let s = self.sizeof_type(t, e.line)?;
                self.emit(&format!("li {rd}, {s}"));
                Ok(Type::Int)
            }
            ExprKind::Name(n) => {
                if let Some(local) = ctx.find(n).cloned() {
                    match local.place {
                        Place::Reg(r) => self.emit(&format!("mv {rd}, r{r}")),
                        Place::Frame(off) => self.emit(&format!("ld8 {rd}, {off}(r29)")),
                    }
                    return Ok(local.ty);
                }
                if let Some(&v) = self.consts.get(n) {
                    self.emit(&format!("li {rd}, {v}"));
                    return Ok(Type::Int);
                }
                if let Some(&off) = self.globals.get(n) {
                    self.emit(&format!("li {rd}, {}", ccsvm_isa::abi::DATA_BASE + off));
                    self.emit(&format!("ld8 {rd}, 0({rd})"));
                    return Ok(Type::Int);
                }
                if self.fns.contains_key(n) {
                    self.emit(&format!("li {rd}, @{n}"));
                    return Ok(Type::Int); // function pointer value
                }
                cerr(e.line, format!("unknown name `{n}`"))
            }
            ExprKind::Cast(inner, to) => {
                let from = self.expr(ctx, inner, d)?;
                match (from.is_int_like(), to) {
                    (_, Type::Struct(_)) => cerr(e.line, "cannot cast to a struct value"),
                    (true, Type::Float) => {
                        self.emit(&format!("i2f {rd}, {rd}"));
                        Ok(Type::Float)
                    }
                    (false, Type::Float) => Ok(Type::Float),
                    (false, t) => {
                        self.emit(&format!("f2i {rd}, {rd}"));
                        Ok(t.clone())
                    }
                    (true, t) => Ok(t.clone()),
                }
            }
            ExprKind::AddrOf(inner) => {
                let t = self.lvalue_addr(ctx, inner, d)?;
                Ok(t.ptr_to())
            }
            ExprKind::Un(op, inner) => {
                let t = self.expr(ctx, inner, d)?;
                match op {
                    UnOp::Neg => {
                        if t.is_int_like() {
                            self.emit(&format!("sub {rd}, r0, {rd}"));
                            Ok(Type::Int)
                        } else {
                            self.emit(&format!("fneg {rd}, {rd}"));
                            Ok(Type::Float)
                        }
                    }
                    UnOp::Not => {
                        if !t.is_int_like() {
                            return cerr(e.line, "`!` needs an integer");
                        }
                        self.emit(&format!("seq {rd}, {rd}, 0"));
                        Ok(Type::Int)
                    }
                    UnOp::Deref => match t {
                        Type::Ptr(inner) => match *inner {
                            Type::Struct(_) => cerr(e.line, "cannot load a whole struct; use `->`"),
                            elem => {
                                self.emit(&format!("ld8 {rd}, 0({rd})"));
                                Ok(elem)
                            }
                        },
                        Type::Int => {
                            self.emit(&format!("ld8 {rd}, 0({rd})"));
                            Ok(Type::Int)
                        }
                        other => cerr(e.line, format!("cannot dereference `{other}`")),
                    },
                }
            }
            ExprKind::Index(base, idx) => {
                let (elem, ()) = self.index_addr(ctx, base, idx, d)?;
                match elem {
                    // Indexing an array of structs yields the element address.
                    Type::Struct(s) => Ok(Type::Struct(s).ptr_to()),
                    t => {
                        self.emit(&format!("ld8 {rd}, 0({rd})"));
                        Ok(t)
                    }
                }
            }
            ExprKind::Field(base, fname) => {
                let fty = self.field_addr(ctx, base, fname, d, e.line)?;
                self.emit(&format!("ld8 {rd}, 0({rd})"));
                Ok(fty)
            }
            ExprKind::Bin(op, a, b) => self.binary(ctx, e.line, *op, a, b, d),
            ExprKind::Call(callee, args) => self.call(ctx, e.line, callee, args, d),
        }
    }

    fn binary(
        &mut self,
        ctx: &mut FnCtx,
        line: usize,
        op: BinOp,
        a: &Expr,
        b: &Expr,
        d: usize,
    ) -> Result<Type, CompileError> {
        let rd = reg(d)?;
        // Short-circuit logicals.
        if matches!(op, BinOp::LogicalAnd | BinOp::LogicalOr) {
            let done = self.label("sc");
            let ta = self.expr(ctx, a, d)?;
            if !ta.is_int_like() {
                return cerr(line, "logical operand must be an integer");
            }
            self.emit(&format!("sne {rd}, {rd}, 0"));
            match op {
                BinOp::LogicalAnd => self.emit(&format!("beq {rd}, r0, {done}")),
                _ => self.emit(&format!("bne {rd}, r0, {done}")),
            }
            let tb = self.expr(ctx, b, d)?;
            if !tb.is_int_like() {
                return cerr(line, "logical operand must be an integer");
            }
            self.emit(&format!("sne {rd}, {rd}, 0"));
            self.emit_label(&done);
            return Ok(Type::Int);
        }

        let ta = self.expr(ctx, a, d)?;
        // Immediate peephole for integer ops with literal rhs.
        if ta.is_int_like() {
            if let ExprKind::IntLit(c) = b.kind {
                if let Some(t) = self.int_op_imm(line, op, &ta, c, d)? {
                    return Ok(t);
                }
            }
        }
        let rb = reg(d + 1)?;
        let tb = self.expr(ctx, b, d + 1)?;
        match (ta.is_int_like(), tb.is_int_like()) {
            (true, true) => {
                // Pointer arithmetic scaling.
                if matches!(op, BinOp::Add | BinOp::Sub) {
                    if ta.is_ptr() && !tb.is_ptr() {
                        let s = self.sizeof_pointee(&ta, line)?;
                        if s != 1 {
                            self.emit(&format!("mul {rb}, {rb}, {s}"));
                        }
                        let mn = if op == BinOp::Add { "add" } else { "sub" };
                        self.emit(&format!("{mn} {rd}, {rd}, {rb}"));
                        return Ok(ta);
                    }
                    if tb.is_ptr() && !ta.is_ptr() && op == BinOp::Add {
                        let s = self.sizeof_pointee(&tb, line)?;
                        if s != 1 {
                            self.emit(&format!("mul {rd}, {rd}, {s}"));
                        }
                        self.emit(&format!("add {rd}, {rd}, {rb}"));
                        return Ok(tb);
                    }
                    if ta.is_ptr() && tb.is_ptr() && op == BinOp::Sub {
                        let s = self.sizeof_pointee(&ta, line)?;
                        self.emit(&format!("sub {rd}, {rd}, {rb}"));
                        if s != 1 {
                            self.emit(&format!("div {rd}, {rd}, {s}"));
                        }
                        return Ok(Type::Int);
                    }
                }
                if op == BinOp::Ge {
                    // a >= b  ==  b <= a (sle with swapped operands).
                    self.emit(&format!("sle {rd}, {rb}, {rd}"));
                    return Ok(Type::Int);
                }
                let mn = int_mnemonic(op, line)?;
                self.emit(&format!("{mn} {rd}, {rd}, {rb}"));
                let result = if is_comparison(op) {
                    Type::Int
                } else if ta.is_ptr() {
                    ta
                } else if tb.is_ptr() {
                    tb
                } else {
                    Type::Int
                };
                Ok(result)
            }
            (false, false) => {
                let text = match op {
                    BinOp::Add => format!("fadd {rd}, {rd}, {rb}"),
                    BinOp::Sub => format!("fsub {rd}, {rd}, {rb}"),
                    BinOp::Mul => format!("fmul {rd}, {rd}, {rb}"),
                    BinOp::Div => format!("fdiv {rd}, {rd}, {rb}"),
                    BinOp::Lt => format!("flt {rd}, {rd}, {rb}"),
                    BinOp::Le => format!("fle {rd}, {rd}, {rb}"),
                    BinOp::Gt => format!("flt {rd}, {rb}, {rd}"),
                    BinOp::Ge => format!("fle {rd}, {rb}, {rd}"),
                    BinOp::Eq => format!("feq {rd}, {rd}, {rb}"),
                    BinOp::Ne => {
                        self.emit(&format!("feq {rd}, {rd}, {rb}"));
                        format!("seq {rd}, {rd}, 0")
                    }
                    _ => return cerr(line, "operator not defined for floats"),
                };
                self.emit(&text);
                Ok(if is_comparison(op) {
                    Type::Int
                } else {
                    Type::Float
                })
            }
            _ => cerr(line, "mixed int/float operands; cast explicitly with `as`"),
        }
    }

    /// Integer op with immediate rhs; returns `None` when not applicable
    /// (pointer scaling needed with non-trivial size).
    fn int_op_imm(
        &mut self,
        line: usize,
        op: BinOp,
        ta: &Type,
        c: i64,
        d: usize,
    ) -> Result<Option<Type>, CompileError> {
        let rd = reg(d)?;
        if matches!(op, BinOp::Add | BinOp::Sub) && ta.is_ptr() {
            let s = self.sizeof_pointee(ta, line)? as i64;
            let mn = if op == BinOp::Add { "add" } else { "sub" };
            self.emit(&format!("{mn} {rd}, {rd}, {}", c * s));
            return Ok(Some(ta.clone()));
        }
        let mn = match int_mnemonic(op, line) {
            Ok(m) => m,
            Err(_) => return Ok(None),
        };
        self.emit(&format!("{mn} {rd}, {rd}, {c}"));
        Ok(Some(if is_comparison(op) {
            Type::Int
        } else {
            ta.clone()
        }))
    }

    // ----- calls ----------------------------------------------------------

    fn call(
        &mut self,
        ctx: &mut FnCtx,
        line: usize,
        callee: &Expr,
        args: &[Expr],
        d: usize,
    ) -> Result<Type, CompileError> {
        if let ExprKind::Name(n) = &callee.kind {
            if is_builtin(n) {
                return self.builtin(ctx, line, n, args, d);
            }
            if let Some(sig) = self.fns.get(n).cloned() {
                if args.len() != sig.params.len() {
                    return cerr(
                        line,
                        format!(
                            "`{n}` takes {} arguments, got {}",
                            sig.params.len(),
                            args.len()
                        ),
                    );
                }
                if ctx.kind == FnKind::Mttop && sig.kind == FnKind::Cpu {
                    return cerr(line, format!("MTTOP code cannot call _CPU_ fn `{n}`"));
                }
                if ctx.kind == FnKind::Cpu && sig.kind == FnKind::Mttop {
                    return cerr(line, format!("CPU code cannot call _MTTOP_ fn `{n}`"));
                }
                for (i, arg) in args.iter().enumerate() {
                    let t = self.expr(ctx, arg, d + i)?;
                    if !compatible(&sig.params[i], &t) {
                        return cerr(
                            arg.line,
                            format!(
                                "argument {} of `{n}`: expected `{}`, got `{t}`",
                                i + 1,
                                sig.params[i]
                            ),
                        );
                    }
                }
                self.emit_call_sequence(d, args.len(), &format!("call {n}"));
                return Ok(sig.ret);
            }
            // Fall through: maybe a local holding a function pointer.
        }
        // Indirect call through a function-pointer value.
        let t = self.expr(ctx, callee, d)?;
        if !t.is_int_like() {
            return cerr(line, "cannot call a float");
        }
        for (i, arg) in args.iter().enumerate() {
            self.expr(ctx, arg, d + 1 + i)?;
        }
        // Shift: callee target at d, args at d+1.. — move args into r1..;
        // keep callee reg for `callr`.
        self.spill_below(d);
        for i in 0..args.len() {
            self.emit(&format!("mv r{}, {}", i + 1, reg(d + 1 + i)?));
        }
        let rc = reg(d)?;
        self.emit(&format!("callr {rc}"));
        self.emit(&format!("mv {}, r1", reg(d)?));
        self.restore_below(d);
        Ok(Type::Int)
    }

    /// Common tail of a direct call: spill live window, move args, call, get
    /// result into `r(8+d)`, restore.
    fn emit_call_sequence(&mut self, d: usize, nargs: usize, call: &str) {
        self.spill_below(d);
        for i in 0..nargs {
            self.emit(&format!("mv r{}, r{}", i + 1, EVAL_BASE + d + i));
        }
        self.emit(call);
        self.emit(&format!("mv r{}, r1", EVAL_BASE + d));
        self.restore_below(d);
    }

    /// Saves r8..r(8+d-1) below the stack pointer around a call.
    fn spill_below(&mut self, d: usize) {
        for i in 0..d {
            self.emit(&format!("st8 r{}, -{}(r30)", EVAL_BASE + i, (i + 1) * 8));
        }
        if d > 0 {
            self.emit(&format!("sub r30, r30, {}", d * 8));
        }
    }

    fn restore_below(&mut self, d: usize) {
        if d > 0 {
            self.emit(&format!("add r30, r30, {}", d * 8));
        }
        for i in 0..d {
            self.emit(&format!("ld8 r{}, -{}(r30)", EVAL_BASE + i, (i + 1) * 8));
        }
    }

    fn builtin(
        &mut self,
        ctx: &mut FnCtx,
        line: usize,
        name: &str,
        args: &[Expr],
        d: usize,
    ) -> Result<Type, CompileError> {
        let rd = reg(d)?;
        let argc = |n: usize| -> Result<(), CompileError> {
            if args.len() == n {
                Ok(())
            } else {
                cerr(
                    line,
                    format!("`{name}` takes {n} arguments, got {}", args.len()),
                )
            }
        };
        let cpu_only = |ctx: &FnCtx| -> Result<(), CompileError> {
            if ctx.kind == FnKind::Cpu {
                Ok(())
            } else {
                cerr(
                    line,
                    format!("`{name}` performs a syscall and is only available in _CPU_ functions"),
                )
            }
        };
        match name {
            // --- atomics (everywhere, §3.2.4) ---
            "atomic_add" | "atomic_exch" => {
                argc(2)?;
                self.expr(ctx, &args[0], d)?;
                self.expr(ctx, &args[1], d + 1)?;
                let mn = if name == "atomic_add" {
                    "amoadd"
                } else {
                    "amoswap"
                };
                self.emit(&format!("{mn} {rd}, ({rd}), {}", reg(d + 1)?));
                Ok(Type::Int)
            }
            "atomic_cas" => {
                argc(3)?;
                self.expr(ctx, &args[0], d)?;
                self.expr(ctx, &args[1], d + 1)?;
                self.expr(ctx, &args[2], d + 2)?;
                self.emit(&format!(
                    "amocas {rd}, ({rd}), {}, {}",
                    reg(d + 1)?,
                    reg(d + 2)?
                ));
                Ok(Type::Int)
            }
            "atomic_inc" | "atomic_dec" => {
                argc(1)?;
                self.expr(ctx, &args[0], d)?;
                let mn = if name == "atomic_inc" {
                    "amoinc"
                } else {
                    "amodec"
                };
                self.emit(&format!("{mn} {rd}, ({rd})"));
                Ok(Type::Int)
            }
            "fence" => {
                argc(0)?;
                self.emit("fence");
                self.emit(&format!("li {rd}, 0"));
                Ok(Type::Int)
            }
            // --- math (everywhere) ---
            "sqrt" | "fabsf" => {
                argc(1)?;
                let t = self.expr(ctx, &args[0], d)?;
                if t.is_int_like() {
                    return cerr(line, format!("`{name}` needs a float"));
                }
                let mn = if name == "sqrt" { "fsqrt" } else { "fabs" };
                self.emit(&format!("{mn} {rd}, {rd}"));
                Ok(Type::Float)
            }
            "fminf" | "fmaxf" => {
                argc(2)?;
                self.expr(ctx, &args[0], d)?;
                self.expr(ctx, &args[1], d + 1)?;
                let mn = if name == "fminf" { "fmin" } else { "fmax" };
                self.emit(&format!("{mn} {rd}, {rd}, {}", reg(d + 1)?));
                Ok(Type::Float)
            }
            // --- OS services (CPU only) ---
            "malloc" => {
                argc(1)?;
                cpu_only(ctx)?;
                self.syscall1(ctx, ccsvm_isa::sys::MALLOC, &args[0], d)?;
                Ok(Type::Int.ptr_to())
            }
            "free" => {
                argc(1)?;
                cpu_only(ctx)?;
                self.syscall1(ctx, ccsvm_isa::sys::FREE, &args[0], d)?;
                Ok(Type::Int)
            }
            "print_int" => {
                argc(1)?;
                cpu_only(ctx)?;
                self.syscall1(ctx, ccsvm_isa::sys::PRINT_INT, &args[0], d)?;
                Ok(Type::Int)
            }
            "print_float" => {
                argc(1)?;
                cpu_only(ctx)?;
                self.syscall1(ctx, ccsvm_isa::sys::PRINT_FLOAT, &args[0], d)?;
                Ok(Type::Int)
            }
            "mifd_launch" => {
                argc(1)?;
                cpu_only(ctx)?;
                self.syscall1(ctx, ccsvm_isa::sys::MIFD_LAUNCH, &args[0], d)?;
                Ok(Type::Int)
            }
            "munmap" => {
                argc(1)?;
                cpu_only(ctx)?;
                self.syscall1(ctx, ccsvm_isa::sys::MUNMAP, &args[0], d)?;
                Ok(Type::Int)
            }
            "spawn_cthread" => {
                argc(2)?;
                cpu_only(ctx)?;
                self.expr(ctx, &args[0], d)?;
                self.expr(ctx, &args[1], d + 1)?;
                self.emit(&format!("mv r2, {rd}"));
                self.emit(&format!("mv r3, {}", reg(d + 1)?));
                self.emit(&format!("li r1, {}", ccsvm_isa::sys::SPAWN_CTHREAD));
                self.emit("syscall");
                self.emit(&format!("mv {rd}, r1"));
                Ok(Type::Int)
            }
            "exit_thread" => {
                argc(0)?;
                cpu_only(ctx)?;
                self.emit(&format!("li r1, {}", ccsvm_isa::sys::EXIT_THREAD));
                self.emit("syscall");
                Ok(Type::Int)
            }
            other => cerr(line, format!("unknown builtin `{other}`")),
        }
    }

    fn syscall1(
        &mut self,
        ctx: &mut FnCtx,
        num: u64,
        arg: &Expr,
        d: usize,
    ) -> Result<(), CompileError> {
        let rd = reg(d)?;
        self.expr(ctx, arg, d)?;
        self.emit(&format!("mv r2, {rd}"));
        self.emit(&format!("li r1, {num}"));
        self.emit("syscall");
        self.emit(&format!("mv {rd}, r1"));
        Ok(())
    }
}

fn reg(d: usize) -> Result<String, CompileError> {
    if d >= EVAL_REGS {
        return cerr(0, "expression too deep (more than 20 live temporaries)");
    }
    Ok(format!("r{}", EVAL_BASE + d))
}

fn is_comparison(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
    )
}

fn int_mnemonic(op: BinOp, line: usize) -> Result<&'static str, CompileError> {
    Ok(match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Div => "div",
        BinOp::Rem => "rem",
        BinOp::And => "and",
        BinOp::Or => "or",
        BinOp::Xor => "xor",
        BinOp::Shl => "shl",
        BinOp::Shr => "shr",
        BinOp::Lt => "slt",
        BinOp::Le => "sle",
        BinOp::Gt => "sgt",
        // Ge needs swapped operands (handled by the callers).
        BinOp::Ge => return cerr(line, "internal: Ge requires operand swap"),
        BinOp::Eq => "seq",
        BinOp::Ne => "sne",
        _ => return cerr(line, "operator not valid here"),
    })
}

/// Records every name that appears under `&` anywhere in the statements
/// (conservatively by name: any `&x` forces all locals named `x` in this
/// function into the frame).
fn collect_addr_taken_stmts(stmts: &[Stmt], out: &mut std::collections::HashSet<String>) {
    for s in stmts {
        match s {
            Stmt::Let { init, .. } => collect_addr_taken_expr(init, out),
            Stmt::Assign { target, value, .. } => {
                collect_addr_taken_expr(target, out);
                collect_addr_taken_expr(value, out);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                collect_addr_taken_expr(cond, out);
                collect_addr_taken_stmts(then_blk, out);
                collect_addr_taken_stmts(else_blk, out);
            }
            Stmt::While { cond, body } => {
                collect_addr_taken_expr(cond, out);
                collect_addr_taken_stmts(body, out);
            }
            Stmt::Return { value, .. } => {
                if let Some(v) = value {
                    collect_addr_taken_expr(v, out);
                }
            }
            Stmt::ExprStmt(e) => collect_addr_taken_expr(e, out),
            Stmt::Block(b) => collect_addr_taken_stmts(b, out),
            Stmt::Break { .. } | Stmt::Continue { .. } => {}
        }
    }
}

fn collect_addr_taken_expr(e: &Expr, out: &mut std::collections::HashSet<String>) {
    match &e.kind {
        ExprKind::AddrOf(inner) => {
            if let ExprKind::Name(n) = &inner.kind {
                out.insert(n.clone());
            }
            collect_addr_taken_expr(inner, out);
        }
        ExprKind::Bin(_, a, b) | ExprKind::Index(a, b) => {
            collect_addr_taken_expr(a, out);
            collect_addr_taken_expr(b, out);
        }
        ExprKind::Un(_, a) | ExprKind::Field(a, _) | ExprKind::Cast(a, _) => {
            collect_addr_taken_expr(a, out)
        }
        ExprKind::Call(c, args) => {
            collect_addr_taken_expr(c, out);
            for a in args {
                collect_addr_taken_expr(a, out);
            }
        }
        ExprKind::IntLit(_) | ExprKind::FloatLit(_) | ExprKind::Name(_) | ExprKind::SizeOf(_) => {}
    }
}

fn compatible(want: &Type, got: &Type) -> bool {
    match (want, got) {
        (Type::Float, Type::Float) => true,
        (Type::Float, _) | (_, Type::Float) => false,
        // All int-like types (ints, any pointers) interconvert freely,
        // C-style.
        _ => true,
    }
}

fn is_builtin(name: &str) -> bool {
    matches!(
        name,
        "atomic_add"
            | "atomic_cas"
            | "atomic_inc"
            | "atomic_dec"
            | "atomic_exch"
            | "fence"
            | "sqrt"
            | "fabsf"
            | "fminf"
            | "fmaxf"
            | "malloc"
            | "free"
            | "print_int"
            | "print_float"
            | "mifd_launch"
            | "munmap"
            | "spawn_cthread"
            | "exit_thread"
            | "sizeof"
    )
}
