//! Yardsticks for the host's speed, so that host times measured while
//! other tenants slow the host down still compare.
//!
//! On a shared 2-vCPU host the simulator's speed drifts by up to 1.5x
//! over minutes, and swings within a run, without any steal time
//! showing (see README.md). A slow spell can outlast a run, so no
//! statistic taken within one run removes it; a yardstick measured in
//! the same run does. There are two:
//!
//! - a round trip to a helper thread over two channels: a cross-thread
//!   wakeup, as a baton handoff of the engine is;
//! - a parse of a fixed JSON document into a tree of strings, vectors
//!   and numbers: branchy byte scanning, number parsing and small
//!   allocations, as the memory model and the harness's steps are.
//!
//! Pure computation is scaled by the parse. A unit that blocks both
//! computes and waits on wakeups, and is scaled by the geometric mean of
//! the two.
//!
//! Both are frozen in this file, so no change to the simulator can move
//! them. They are measured every `REFRESH_S` through a run.

use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// Round trips per run (about 0.8 ms here).
const ROUND_TRIPS: u64 = 50;

/// Runs per measurement; the fastest one counts, so that an interrupt
/// during one run does not read as a slow host.
const RUNS: usize = 3;

/// How old a measurement may get before a timed region measures again.
const REFRESH_S: f64 = 0.1;

/// Records in the parsed document (about 40 KiB of text, 0.25 ms).
const DOC_RECORDS: usize = 60;

/// The reference host, about this 2-vCPU Xeon when it is not slowed
/// down: one round trip takes 15 µs, and the 10th percentile of the
/// parse readings is 240 µs. Scaled times are host seconds on that
/// host.
const REFERENCE_NS_PER_ROUND_TRIP: f64 = 15_000.0;
const REFERENCE_NS_PER_PARSE: f64 = 240_000.0;

/// Measures the host's speed now and then through a run.
pub struct Yardstick {
    /// Sends to the helper thread; `None` once dropped.
    to_helper: Option<Sender<u64>>,
    from_helper: Receiver<u64>,
    helper: Option<JoinHandle<()>>,
    /// The document the parse reads.
    doc: String,
    measured_at: Instant,
    /// Every measurement, in ns per round trip.
    round_trip_ns: Vec<f64>,
    /// Every measurement, in ns per parse.
    parse_ns: Vec<f64>,
}

impl Yardstick {
    /// A yardstick with one fresh measurement. Starts the helper thread,
    /// which is joined on drop.
    pub fn new() -> Yardstick {
        let (to_helper, helper_rx) = channel::<u64>();
        let (helper_tx, from_helper) = channel::<u64>();
        let helper = std::thread::spawn(move || {
            while let Ok(v) = helper_rx.recv() {
                if helper_tx.send(v + 1).is_err() {
                    break;
                }
            }
        });
        let mut y = Yardstick {
            to_helper: Some(to_helper),
            from_helper,
            helper: Some(helper),
            doc: document(),
            measured_at: Instant::now(),
            round_trip_ns: Vec::new(),
            parse_ns: Vec::new(),
        };
        y.measure();
        y
    }

    /// Bounces a value to the helper thread and back `ROUND_TRIPS` times.
    fn run_handoffs(&mut self) -> u64 {
        let to_helper = self
            .to_helper
            .as_ref()
            .expect("the helper lives until drop");
        let mut v = 0;
        for _ in 0..ROUND_TRIPS {
            to_helper.send(v).expect("the helper lives until drop");
            v = self
                .from_helper
                .recv()
                .expect("the helper lives until drop");
        }
        v
    }

    fn measure(&mut self) {
        let best = |f: &mut dyn FnMut() -> u64| {
            (0..RUNS)
                .map(|_| {
                    let t0 = Instant::now();
                    black_box(f());
                    t0.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let round_trips = best(&mut || self.run_handoffs());
        self.round_trip_ns
            .push(round_trips * 1e9 / ROUND_TRIPS as f64);
        let doc = &self.doc;
        let parse_s = best(&mut || parse(black_box(doc.as_bytes())) as u64);
        self.parse_ns.push(parse_s * 1e9);
        self.measured_at = Instant::now();
    }

    /// Measures again if the last measurement is older than `REFRESH_S`.
    /// Called between timed regions, so measurements follow the host's
    /// speed through the run.
    pub fn tick(&mut self) {
        if self.measured_at.elapsed().as_secs_f64() > REFRESH_S {
            self.measure();
        }
    }

    /// The run's median round trip, in ns.
    pub fn round_trip_ns(&self) -> f64 {
        quantile(&self.round_trip_ns, 0.5)
    }

    /// The 10th percentile of the run's parse times, in ns: the host at
    /// its fast moments, as a best time over passes is.
    pub fn parse_ns(&self) -> f64 {
        quantile(&self.parse_ns, 0.1)
    }

    /// The factors that turn this run's host seconds into seconds on
    /// the reference host.
    pub fn scales(&self) -> Scales {
        let compute = REFERENCE_NS_PER_PARSE / self.parse_ns();
        let wakeup = REFERENCE_NS_PER_ROUND_TRIP / self.round_trip_ns();
        Scales {
            blocking: (wakeup * compute).sqrt(),
            compute,
        }
    }
}

impl Drop for Yardstick {
    fn drop(&mut self) {
        // Closing the channel ends the helper's loop.
        self.to_helper = None;
        if let Some(helper) = self.helper.take() {
            let _ = helper.join();
        }
    }
}

/// What a run's host seconds are multiplied by.
#[derive(Clone, Copy, Debug)]
pub struct Scales {
    /// For units that block: the geometric mean of the factors of the
    /// round trip and the parse.
    pub blocking: f64,
    /// For pure computation: by the parse.
    pub compute: f64,
}

/// The value at `q` of the sorted `readings` (nearest rank below).
fn quantile(readings: &[f64], q: f64) -> f64 {
    let mut v = readings.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q) as usize]
}

/// A JSON document shaped like the blessed records: objects of
/// labelled statistics.
fn document() -> String {
    let mut doc = String::from("{\"records\": [");
    for r in 0..DOC_RECORDS {
        if r > 0 {
            doc.push_str(", ");
        }
        doc.push_str(&format!(
            "{{\"id\": \"x{r}\", \"title\": \"experiment {r}\", \"stats\": ["
        ));
        for k in 0..6 {
            if k > 0 {
                doc.push_str(", ");
            }
            let mean = 1.0 / (r + k + 3) as f64;
            let std = (r * k) as f64 * 0.123_456_7;
            doc.push_str(&format!(
                "{{\"label\": \"Linux/n={k}/leg\", \"mean\": {mean}, \"std\": {std}, \"n\": 5}}"
            ));
        }
        doc.push_str("]}");
    }
    doc.push_str("]}");
    doc
}

/// A parsed JSON value.
enum Node {
    Num(f64),
    Str(String),
    Arr(Vec<Node>),
    Obj(Vec<(String, Node)>),
}

/// Parses `doc`, which is well formed, and returns a checksum of the
/// tree, so that nothing parsed goes unused.
fn parse(doc: &[u8]) -> usize {
    fn skip(b: &[u8], i: &mut usize) {
        while matches!(b[*i], b' ' | b',' | b':') {
            *i += 1;
        }
    }
    fn value(b: &[u8], i: &mut usize) -> Node {
        skip(b, i);
        match b[*i] {
            b'{' => {
                *i += 1;
                let mut members = Vec::new();
                loop {
                    skip(b, i);
                    if b[*i] == b'}' {
                        *i += 1;
                        return Node::Obj(members);
                    }
                    let Node::Str(key) = value(b, i) else {
                        unreachable!("keys are strings")
                    };
                    members.push((key, value(b, i)));
                }
            }
            b'[' => {
                *i += 1;
                let mut items = Vec::new();
                loop {
                    skip(b, i);
                    if b[*i] == b']' {
                        *i += 1;
                        return Node::Arr(items);
                    }
                    items.push(value(b, i));
                }
            }
            b'"' => {
                let start = *i + 1;
                *i = start + b[start..].iter().position(|&c| c == b'"').unwrap_or(0);
                let s = String::from_utf8_lossy(&b[start..*i]).into_owned();
                *i += 1;
                Node::Str(s)
            }
            _ => {
                let start = *i;
                while !matches!(b[*i], b',' | b'}' | b']') {
                    *i += 1;
                }
                let text = std::str::from_utf8(&b[start..*i]).unwrap_or("");
                Node::Num(text.parse().unwrap_or(0.0))
            }
        }
    }
    fn fold(n: &Node) -> f64 {
        match n {
            Node::Num(x) => 1.0 + x,
            Node::Str(s) => s.len() as f64,
            Node::Arr(items) => 1.0 + items.iter().map(fold).sum::<f64>(),
            Node::Obj(members) => 1.0 + members.iter().map(|(_, v)| fold(v)).sum::<f64>(),
        }
    }
    fold(&value(doc, &mut 0)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_yardsticks_are_deterministic_work() {
        let mut y = Yardstick::new();
        assert_eq!(y.run_handoffs(), ROUND_TRIPS);
        let doc = document();
        assert_eq!(parse(doc.as_bytes()), parse(doc.as_bytes()));
        assert!(parse(doc.as_bytes()) > DOC_RECORDS * 6 * 4);
    }

    #[test]
    fn scales_are_the_reference_over_the_run_reading() {
        let mut y = Yardstick::new();
        y.round_trip_ns = vec![60_000.0, 10_000.0, 30_000.0];
        y.parse_ns = (1..=11).map(|k| k as f64 * 60_000.0).collect();
        assert_eq!(y.round_trip_ns(), 30_000.0);
        assert_eq!(y.parse_ns(), 120_000.0);
        let s = y.scales();
        assert_eq!((s.blocking, s.compute), (1.0, 2.0));
    }
}
