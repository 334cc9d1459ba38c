//! Pre-compiled ClassAd expressions.
//!
//! The Hawkeye Manager evaluates the *same* constraint or `Requirements`
//! expression against every ad in the pool on every query.  Walking the
//! AST per evaluation re-dispatches on node tags and re-boxes operands;
//! [`CompiledExpr`] flattens the tree once into a postfix op vector with
//! explicit jumps for the non-strict operators, evaluated by a small
//! stack machine with no recursion over the compiled expression itself.
//!
//! Attribute references still resolve through `crate::eval::eval_attr`
//! (referenced attribute *bodies* are evaluated by the tree walker, with
//! the same MY/TARGET swap and cycle detection), and all value semantics
//! are delegated to the helpers the tree walker itself uses
//! (`strict_binary`, `connective_tail`, `call_builtin`, ...), so a
//! compiled evaluation is bit-for-bit identical to [`crate::eval::eval`]
//! on the same expression — a property the gridmon-diff suite asserts
//! over randomly generated expressions and ads.

use crate::ad::ClassAd;
use crate::eval::{
    call_builtin, connective_shortcircuits, connective_tail, eval_attr, eval_unary, strict_binary,
    EvalCtx,
};
use crate::expr::{BinOp, Expr, Scope, UnOp};
use crate::value::Value;
use gintern::Sym;

/// One instruction of the flattened expression.
#[derive(Debug, Clone)]
enum Op {
    /// Push a literal value.
    Lit(Value),
    /// Resolve an attribute reference (index into the name table).
    Attr { scope: Scope, name: u32 },
    /// Pop one value, apply a unary operator.
    Unary(UnOp),
    /// Pop two values, apply a strict binary operator (also `=?=`/`=!=`,
    /// which always evaluate both sides).
    Strict(BinOp),
    /// `&&`/`||` after the left operand: if it short-circuits, leave it as
    /// the result and jump to `skip` (past the combine op).
    Check { op: BinOp, skip: u32 },
    /// `&&`/`||` after both operands: pop both, combine three-valued.
    Combine(BinOp),
    /// `?:` after the condition: pop it; `true` falls through into the
    /// then-branch, `false` jumps to `else_at`, `UNDEFINED`/non-boolean
    /// push their result and jump to `end_at`.
    Branch { else_at: u32, end_at: u32 },
    /// Unconditional jump (end of the then-branch).
    Jmp { to: u32 },
    /// Pop `argc` arguments (in order), call a builtin by name index.
    Call { name: u32, argc: u32 },
}

/// A ClassAd expression compiled to a flat postfix program with an
/// interned attribute/builtin name table.
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    ops: Vec<Op>,
    names: Vec<Sym>,
}

impl CompiledExpr {
    /// Flatten `expr`.  Compilation never fails: every AST shape has a
    /// direct op sequence.
    pub fn compile(expr: &Expr) -> CompiledExpr {
        let mut c = CompiledExpr {
            ops: Vec::new(),
            names: Vec::new(),
        };
        c.emit(expr);
        c
    }

    /// Number of instructions (diagnostics).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    fn intern(&mut self, name: Sym) -> u32 {
        match self.names.iter().position(|&n| n == name) {
            Some(i) => i as u32,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u32
            }
        }
    }

    fn emit(&mut self, expr: &Expr) {
        match expr {
            Expr::Lit(v) => self.ops.push(Op::Lit(v.clone())),
            Expr::Attr { scope, name, .. } => {
                let name = self.intern(*name);
                self.ops.push(Op::Attr {
                    scope: *scope,
                    name,
                });
            }
            Expr::Unary(op, e) => {
                self.emit(e);
                self.ops.push(Op::Unary(*op));
            }
            Expr::Binary(op @ (BinOp::And | BinOp::Or), a, b) => {
                self.emit(a);
                let check_at = self.ops.len();
                self.ops.push(Op::Check { op: *op, skip: 0 });
                self.emit(b);
                self.ops.push(Op::Combine(*op));
                let end = self.ops.len() as u32;
                let Op::Check { skip, .. } = &mut self.ops[check_at] else {
                    unreachable!()
                };
                *skip = end;
            }
            Expr::Binary(op, a, b) => {
                self.emit(a);
                self.emit(b);
                self.ops.push(Op::Strict(*op));
            }
            Expr::Cond(c, t, e) => {
                self.emit(c);
                let branch_at = self.ops.len();
                self.ops.push(Op::Branch {
                    else_at: 0,
                    end_at: 0,
                });
                self.emit(t);
                let jmp_at = self.ops.len();
                self.ops.push(Op::Jmp { to: 0 });
                let else_pos = self.ops.len() as u32;
                self.emit(e);
                let end_pos = self.ops.len() as u32;
                let Op::Branch { else_at, end_at } = &mut self.ops[branch_at] else {
                    unreachable!()
                };
                (*else_at, *end_at) = (else_pos, end_pos);
                let Op::Jmp { to } = &mut self.ops[jmp_at] else {
                    unreachable!()
                };
                *to = end_pos;
            }
            Expr::Call(name, args) => {
                for a in args {
                    self.emit(a);
                }
                let name = self.intern(*name);
                self.ops.push(Op::Call {
                    name,
                    argc: args.len() as u32,
                });
            }
        }
    }

    /// Run the program in an existing context (shares cycle-detection
    /// state with any enclosing tree-walking evaluation).
    pub fn eval_in(&self, cx: &mut EvalCtx) -> Value {
        let mut stack: Vec<Value> = Vec::with_capacity(8);
        let mut pc = 0usize;
        while pc < self.ops.len() {
            match &self.ops[pc] {
                Op::Lit(v) => stack.push(v.clone()),
                Op::Attr { scope, name } => {
                    let v = eval_attr(*scope, self.names[*name as usize], cx);
                    stack.push(v);
                }
                Op::Unary(op) => {
                    let v = stack.pop().expect("operand");
                    stack.push(eval_unary(*op, v));
                }
                Op::Strict(op) => {
                    let b = stack.pop().expect("rhs");
                    let a = stack.pop().expect("lhs");
                    let v = match op {
                        BinOp::MetaEq => Value::Bool(a.meta_eq(&b)),
                        BinOp::MetaNe => Value::Bool(!a.meta_eq(&b)),
                        _ => strict_binary(*op, a, b),
                    };
                    stack.push(v);
                }
                Op::Check { op, skip } => {
                    if connective_shortcircuits(*op, stack.last().expect("lhs")) {
                        pc = *skip as usize;
                        continue;
                    }
                }
                Op::Combine(op) => {
                    let vb = stack.pop().expect("rhs");
                    let va = stack.pop().expect("lhs");
                    stack.push(connective_tail(*op, va, vb));
                }
                Op::Branch { else_at, end_at } => match stack.pop().expect("condition") {
                    Value::Bool(true) => {}
                    Value::Bool(false) => {
                        pc = *else_at as usize;
                        continue;
                    }
                    Value::Undefined => {
                        stack.push(Value::Undefined);
                        pc = *end_at as usize;
                        continue;
                    }
                    _ => {
                        stack.push(Value::Error);
                        pc = *end_at as usize;
                        continue;
                    }
                },
                Op::Jmp { to } => {
                    pc = *to as usize;
                    continue;
                }
                Op::Call { name, argc } => {
                    let at = stack.len() - *argc as usize;
                    let vals: Vec<Value> = stack.split_off(at);
                    stack.push(call_builtin(&self.names[*name as usize], &vals));
                }
            }
            pc += 1;
        }
        stack.pop().expect("result")
    }

    /// Evaluate against `my` (and optionally `target`) — the compiled
    /// counterpart of [`crate::eval::eval`].
    pub fn eval(&self, my: &ClassAd, target: Option<&ClassAd>) -> Value {
        let mut cx = EvalCtx::new(my, target);
        self.eval_in(&mut cx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::parser::parse_expr;

    fn agree(src: &str, my: &ClassAd, target: Option<&ClassAd>) {
        let e = parse_expr(src).unwrap();
        let c = CompiledExpr::compile(&e);
        assert_eq!(c.eval(my, target), eval(&e, my, target), "{src}");
    }

    #[test]
    fn compiled_agrees_with_tree_walker() {
        let my = ClassAd::parse(
            "a = 5\nb = a * 2\nname = \"lucky7\"\nload = 62.5\n\
             cyc = cyc2\ncyc2 = cyc\n",
        )
        .unwrap();
        let target = ClassAd::parse("load = 10\nreq = MY.load < 50\n").unwrap();
        for src in [
            "1 + 2 * 3",
            "7 / 0",
            "b + a",
            "missing + 1",
            "cyc",
            "FALSE && missing",
            "missing && FALSE",
            "TRUE || ERROR",
            "1 && TRUE",
            "missing =?= UNDEFINED",
            "load > 50 ? \"hot\" : \"cold\"",
            "missing ? 1 : 2",
            "5 ? 1 : 2",
            "floor(load / 10)",
            "strcat(name, \"-\", a)",
            "stringListMember(\"x\", \"a, x, b\")",
            "TARGET.req",
            "TARGET.load < load",
            "nosuchfn(1)",
            "!(load > 50) || missing",
            "-(a - b)",
            "min(a, load)",
        ] {
            agree(src, &my, Some(&target));
            agree(src, &my, None);
        }
    }

    #[test]
    fn short_circuit_skips_rhs_attr_resolution() {
        // `FALSE && x` must not even resolve x; equality with the tree
        // walker (which also short-circuits) is checked via a cycle that
        // would otherwise surface as UNDEFINED vs the literal result.
        let my = ClassAd::parse("flag = FALSE\n").unwrap();
        agree("flag && nosuch", &my, None);
        agree("!flag || nosuch", &my, None);
    }

    #[test]
    fn name_table_interns_repeats() {
        let e = parse_expr("x + x + x > y").unwrap();
        let c = CompiledExpr::compile(&e);
        assert_eq!(c.names.len(), 2);
    }

    #[test]
    fn nested_conditionals_jump_correctly() {
        let my = ClassAd::parse("x = 2\n").unwrap();
        for src in [
            "x > 1 ? (x > 3 ? 1 : 2) : 3",
            "x > 3 ? 1 : x > 1 ? 2 : 3",
            "(x ? 1 : 2) + 10",
        ] {
            agree(src, &my, None);
        }
    }
}
