//! # relsql — an in-memory relational engine with a SQL subset
//!
//! R-GMA presents the Grid monitoring data as one virtual relational
//! database: Producers advertise tables, the Registry stores producer
//! metadata in an RDBMS, and Consumers pose SQL queries.  This crate
//! implements the relational substrate:
//!
//! * typed tables with optional primary keys and secondary indexes;
//! * typed statements (`Stmt::select`, `insert_row`, `upsert_row`), all
//!   the R-GMA services run, and a text front end: `CREATE TABLE`,
//!   positional `INSERT`, `SELECT * | COUNT(*) | cols`, `UPDATE … SET`
//!   and `DELETE`, each filtered by at most one `WHERE column = literal`;
//! * an executor that uses an index for equality lookups and otherwise
//!   scans, reporting the rows examined (the simulated CPU cost of a
//!   query).
//!
//! ```
//! use relsql::Database;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE cpu (host TEXT PRIMARY KEY, load REAL)").unwrap();
//! db.execute("INSERT INTO cpu VALUES ('lucky3', 0.7)").unwrap();
//! db.execute("INSERT INTO cpu VALUES ('lucky4', 1.9)").unwrap();
//! let r = db.execute("SELECT host FROM cpu WHERE load = 1.9").unwrap();
//! assert_eq!(r.rows.len(), 1);
//! assert_eq!(r.rows[0][0].to_string(), "'lucky4'");
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod table;
pub mod value;

pub use ast::{name, Pred, SelectCols, Stmt};
pub use engine::{Database, QueryResult, SqlError};
pub use gintern::Sym;
pub use parser::parse_stmt;
pub use table::{ColType, Column, Row, SharedRow, StoredRow, Table, TableSchema};
pub use value::SqlValue;
