//! # classad — the Condor classic ClassAd language
//!
//! Hawkeye is built on Condor's ClassAd (classified advertisement)
//! technology: every resource describes itself as a set of
//! `Attribute = Expression` pairs, and the Manager matches *Trigger*
//! ClassAds against *Startd* ClassAds to detect problems ("CPU load is
//! greater than 50").  This crate implements the classic ClassAd language
//! as used by Condor ~7.x / Hawkeye 0.1.4:
//!
//! * the expression grammar (ternary conditional, boolean, comparison —
//!   including the meta-operators `=?=`/`=!=` — arithmetic, unary
//!   operators, attribute references with optional `MY.`/`TARGET.` scopes,
//!   and a small set of builtin functions);
//! * three-valued evaluation semantics with `UNDEFINED` and `ERROR`
//!   propagation;
//! * [`ClassAd`] records with case-insensitive attribute names and classic
//!   newline-separated serialization;
//! * two-way [`matchmaking`](matchmaker::symmetric_match_compiled) of
//!   `Requirements` pairs, parsed once and matched many times by the one
//!   tree-walking evaluator — the operation at the heart of the Hawkeye
//!   Manager.
//!
//! ```
//! use classad::{ClassAd, matchmaker};
//!
//! let machine = ClassAd::parse("
//!     Machine = \"lucky4.mcs.anl.gov\"\n\
//!     OpSys = \"LINUX\"\n\
//!     CpuLoad = 62.5\n\
//!     Requirements = TRUE\n").unwrap();
//! let trigger = ClassAd::parse("
//!     Requirements = TARGET.CpuLoad > 50 && TARGET.OpSys == \"linux\"\n").unwrap();
//! let (t_req, m_req) = (
//!     matchmaker::compile_requirements(&trigger),
//!     matchmaker::compile_requirements(&machine),
//! );
//! assert!(matchmaker::symmetric_match_compiled(
//!     &trigger,
//!     t_req.as_ref(),
//!     &machine,
//!     m_req.as_ref()
//! ));
//! ```

#![forbid(unsafe_code)]

pub mod ad;
pub mod eval;
pub mod expr;
pub mod lexer;
pub mod matchmaker;
pub mod parser;
pub mod value;

pub use ad::ClassAd;
pub use eval::{eval, EvalCtx};
pub use expr::{BinOp, Expr, Scope, UnOp};
pub use matchmaker::CompiledExpr;
pub use parser::{parse_expr, ParseError};
pub use value::Value;
