//! The frozen reference kernel.
//!
//! Wall time of the same binary is not repeatable on a small shared box
//! (see `benchmark/README.md`, "Noise protocol"): the machine's speed
//! drifts by tens of percent over minutes.  A repetition's cost is
//! therefore reported as a multiple of this kernel's wall time, measured
//! right before and right after the repetition.
//!
//! The kernel is a miniature of what the simulator does per event: pop
//! the earliest event from a binary heap, format a directory key, look it
//! up in an ordered map of strings, clone the entry's attribute strings
//! into a reply, push the follow-up event.  It runs once over a directory
//! that fits in L2 and once over one that does not, because the workloads
//! differ in exactly that.  Sizing runs compared it with a pointer chase,
//! ordered-map churn and a dependent floating-point chain: those barely
//! slowed down when the workloads did, so dividing by them removed little
//! of the drift; this kernel removed more than half of it.
//!
//! **Never edit this file after the PR that added it**: every `wall_ref`
//! number ever recorded is a ratio against exactly this code, and any
//! change rescales all of them.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

const CLIENTS: u32 = 600;
/// (directory entries, events): about 1.5 MB and 8 MB of live strings.
const PARTS: [(u64, u32); 2] = [(4_000, 400_000), (20_000, 300_000)];

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

type Directory = BTreeMap<String, Vec<String>>;

pub struct RefKernel {
    directories: Vec<Directory>,
}

impl RefKernel {
    pub fn new() -> RefKernel {
        let mut s = 0x2003_0622u64;
        let directories = PARTS
            .iter()
            .map(|&(hosts, _)| {
                (0..hosts)
                    .map(|h| {
                        let attrs = (0..6)
                            .map(|j| format!("Mds-Device-name=dev{j}-{}", lcg(&mut s) % 1000))
                            .collect();
                        (format!("mds-host-hn=lucky{h}"), attrs)
                    })
                    .collect()
            })
            .collect();
        RefKernel { directories }
    }

    /// One execution; returns its wall time in seconds.
    pub fn run(&self) -> f64 {
        let t = Instant::now();
        for (dir, &(hosts, events)) in self.directories.iter().zip(&PARTS) {
            let mut s = 0x5ea7_71e5u64;
            let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = (0..CLIENTS)
                .map(|c| Reverse((lcg(&mut s) % 1000, u64::from(c), c)))
                .collect();
            let mut seq = u64::from(CLIENTS);
            let mut bytes = 0usize;
            for _ in 0..events {
                let Reverse((at, _, client)) = heap.pop().expect("one event per client");
                let key = format!("mds-host-hn=lucky{}", lcg(&mut s) % hosts);
                if let Some(attrs) = dir.get(&key) {
                    let reply: Vec<String> = attrs.clone();
                    bytes += reply.iter().map(String::len).sum::<usize>();
                }
                seq += 1;
                heap.push(Reverse((at + 50 + lcg(&mut s) % 500, seq, client)));
            }
            black_box(bytes);
        }
        t.elapsed().as_secs_f64()
    }
}
