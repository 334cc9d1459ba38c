//! # classad — the Condor classic ClassAd language
//!
//! Hawkeye is built on Condor's ClassAd (classified advertisement)
//! technology: every resource describes itself as a set of
//! `Attribute = Expression` pairs, and the Manager matches *Trigger*
//! ClassAds against *Startd* ClassAds to detect problems ("CPU load is
//! greater than 50").  This crate implements the part of the classic
//! ClassAd language (Condor ~7.x / Hawkeye 0.1.4) that Hawkeye constraints
//! and trigger `Requirements` use:
//!
//! * the boolean and comparison core of the expression grammar — `&&`,
//!   `||`, `!`, parentheses, the comparisons and the meta-operators
//!   `=?=`/`=!=` over literals and attribute references with optional
//!   `MY.`/`TARGET.` scopes (no arithmetic, ternary or builtin calls);
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
mod lexer;
pub mod matchmaker;
pub mod parser;
pub mod value;

pub use ad::ClassAd;
pub use eval::{eval, EvalCtx};
pub use expr::{BinOp, Expr, Scope};
pub use matchmaker::CompiledExpr;
pub use parser::{parse_expr, ParseError};
pub use value::Value;
