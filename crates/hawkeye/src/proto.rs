//! Wire messages of the Hawkeye model.

use classad::{ClassAd, CompiledExpr};
use std::rc::Rc;

/// Messages exchanged between clients, Agents and the Manager.
pub enum HawkeyeMsg {
    /// Query an Agent for one module's current data (light query; the
    /// Agent re-runs that module).
    AgentStatus,
    /// Query an Agent for its full integrated Startd ad (re-runs every
    /// module — the paper's Experiment Set 3 workload).
    AgentFull,
    /// One-way Startd ClassAd advertisement to the Manager.  The ad is
    /// refcounted: a sender whose ad did not change re-sends the same
    /// `Rc`, which the Manager recognises without comparing contents.
    StartdAd { machine: String, ad: Rc<ClassAd> },
    /// Query the Manager's resident database for one machine's ad
    /// (`None` = the pool summary) — the paper's directory-server
    /// workload.
    Status { machine: Option<String> },
    /// `condor_status -constraint`-style query: scan every ad in the pool
    /// against the expression (the paper's worst-case Experiment Set 4
    /// workload used a constraint no machine satisfies), parsed where the
    /// query is built.  `text_len` is its source text's wire size.
    Constraint {
        expr: Rc<CompiledExpr>,
        text_len: usize,
    },
    /// Submit a Trigger ClassAd.
    AddTrigger { trigger: ClassAd },
    /// Trigger-fired notification (Manager -> administrator sink).
    TriggerFired { machine: String, trigger_idx: usize },
}

impl HawkeyeMsg {
    /// Approximate size on the wire.
    pub fn wire_size(&self) -> u64 {
        match self {
            HawkeyeMsg::AgentStatus => 160,
            HawkeyeMsg::AgentFull => 180,
            HawkeyeMsg::StartdAd { machine, ad } => 64 + machine.len() as u64 + ad.wire_size(),
            HawkeyeMsg::Status { .. } => 200,
            HawkeyeMsg::Constraint { text_len, .. } => 160 + *text_len as u64,
            HawkeyeMsg::AddTrigger { trigger } => 64 + trigger.wire_size(),
            HawkeyeMsg::TriggerFired { machine, .. } => 96 + machine.len() as u64,
        }
    }
}

/// Reply carrying ads (status / query results).  The ads are shared with
/// the sender's store, so building and cloning a reply copies no ad.
#[derive(Clone)]
pub struct AdsReply {
    pub ads: Vec<Rc<ClassAd>>,
    pub bytes: u64,
}

impl AdsReply {
    pub fn new(ads: Vec<Rc<ClassAd>>) -> AdsReply {
        let bytes = 64 + ads.iter().map(|ad| ad.wire_size()).sum::<u64>();
        AdsReply { ads, bytes }
    }
}
