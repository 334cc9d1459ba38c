//! Wire messages of the R-GMA model.

use relsql::{parse_stmt, SharedRow, SqlError, Stmt, Sym};
use simnet::SvcKey;
use std::rc::Rc;

/// A single-table `SELECT`, parsed once where the query is built and
/// shared by every message that carries it.  It remembers its source
/// text's length, which is what it costs on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    stmt: Stmt,
    table: Sym,
    text_len: usize,
}

impl Select {
    /// Parse `text`, which must be a `SELECT`: any other statement is
    /// [`SqlError::NotSelect`].
    pub fn parse(text: &str) -> Result<Select, SqlError> {
        match parse_stmt(text)? {
            stmt @ Stmt::Select { table, .. } => Ok(Select {
                stmt,
                table,
                text_len: text.len(),
            }),
            _ => Err(SqlError::NotSelect),
        }
    }

    pub(crate) fn stmt(&self) -> &Stmt {
        &self.stmt
    }

    /// The table it reads.
    pub(crate) fn table(&self) -> Sym {
        self.table
    }
}

/// What a ProducerServlet (or the composite) is asked: one select, or
/// every table it holds.  Neither can write.
#[derive(Debug, Clone, PartialEq)]
pub enum ProducerQuery {
    Select(Rc<Select>),
    /// The all-collectors query: a `SELECT *` of each table.
    All,
}

/// Messages between consumers, servlets and the registry.
pub enum RgmaMsg {
    /// Consumer -> ConsumerServlet: run this query over the virtual
    /// database.
    ConsumerQuery(Rc<Select>),
    /// ConsumerServlet (or a test client) -> Registry: which producers
    /// serve `table`?
    RegistryLookup { table: String },
    /// ProducerServlet -> Registry: advertise a producer.
    RegistryRegister {
        servlet: SvcKey,
        table: String,
        predicate: String,
    },
    /// ConsumerServlet (or a direct client) -> ProducerServlet.
    ProducerQuery(ProducerQuery),
    /// Consumer -> ProducerServlet: start streaming `table` tuples to
    /// `sink` every `period_us` microseconds (push mode).
    Subscribe {
        table: String,
        sink: SvcKey,
        period_us: u64,
    },
    /// ProducerServlet -> subscriber sink: a batch of streamed tuples.
    /// Rows are shared with the producer's table (`Rc` clones), so a
    /// streamed batch costs one pointer per tuple, not a deep copy.
    Stream { rows: Vec<SharedRow> },
}

impl RgmaMsg {
    /// Approximate size on the wire (HTTP + XML encoding overhead; R-GMA
    /// 1.x spoke XML over HTTP between components).
    pub fn wire_size(&self) -> u64 {
        let body = match self {
            RgmaMsg::ConsumerQuery(select)
            | RgmaMsg::ProducerQuery(ProducerQuery::Select(select)) => select.text_len as u64,
            // All travels as a five-byte marker.
            RgmaMsg::ProducerQuery(ProducerQuery::All) => 5,
            RgmaMsg::RegistryLookup { table } => table.len() as u64,
            RgmaMsg::RegistryRegister {
                table, predicate, ..
            } => (table.len() + predicate.len()) as u64,
            RgmaMsg::Subscribe { table, .. } => table.len() as u64 + 16,
            RgmaMsg::Stream { rows } => rows_wire_size(rows) + 32,
        };
        240 + body // HTTP headers + XML envelope
    }
}

/// XML-encoded tuples: each row's own (remembered) rendered size plus
/// 8 bytes of element markup per cell.
fn rows_wire_size(rows: &[SharedRow]) -> u64 {
    rows.iter()
        .map(|r| r.wire_size() + 8 * r.len() as u64)
        .sum()
}

/// Registry answer: the producer servlets holding the table.
pub struct ProducerList {
    pub producers: Vec<SvcKey>,
    pub bytes: u64,
}

/// Query answer: a relational result set.  Columns are interned symbols
/// and rows are shared (`Rc`) with the producer tables they came from —
/// forwarding a result set between servlets never deep-copies tuples.
pub struct SqlResultMsg {
    pub columns: Vec<Sym>,
    pub rows: Vec<SharedRow>,
    pub bytes: u64,
}

impl SqlResultMsg {
    pub fn new(columns: Vec<Sym>, rows: Vec<SharedRow>) -> SqlResultMsg {
        let bytes =
            240 + columns.iter().map(|c| c.len() as u64 + 8).sum::<u64>() + rows_wire_size(&rows);
        SqlResultMsg {
            columns,
            rows,
            bytes,
        }
    }
}
