//! Golden references for the serial (k = 1) driver, shared by the parity
//! suites.
//!
//! Serial stepping is the batch of one, so comparing `run_fallible` with
//! `run_batch_fallible(.., 1, ..)` would compare one code path with
//! itself. Instead, each reference records a campaign of the dedicated
//! serial driver that the batch of one replaced (its own bootstrap,
//! recovery and single-suggestion loop): trial count, objective bits,
//! configurations, and an FNV-1a-64 digest of the normalized trace. The
//! k = 1 driver must reproduce every field, so any drift from that
//! algorithm fails here.
//!
//! [`oracle`] holds the from-scratch reference selectors.
//!
//! Every suite compiles this module but uses only part of it.
#![allow(dead_code)]

pub mod oracle;

use hiperbot_core::Tuner;
use hiperbot_obs::MemoryRecorder;
use hiperbot_space::Configuration;

/// One recorded campaign of the dedicated serial driver.
pub struct SerialReference {
    pub seed: u64,
    pub trials: usize,
    pub failures: usize,
    /// Proposal stalls of the run (`Tuner::stalls`).
    pub stalls: usize,
    /// `f64::to_bits` of every observation, in history order.
    pub objective_bits: &'static [u64],
    /// [`config_string`] of every observation, in history order.
    pub configs: &'static [&'static str],
    /// [`fnv1a64`] over the run's [`normalized_events`].
    pub trace_fnv: u64,
    /// [`config_string`] of the suggestion that follows the run, when the
    /// space is not exhausted.
    pub next_suggestion: Option<&'static str>,
}

/// A configuration's values rendered with `Debug` (exact for `f64`).
pub fn config_string(cfg: &Configuration) -> String {
    format!("{:?}", cfg.values())
}

/// Zeroes the digits after every `"<key>":` occurrence, so serialized
/// events compare structurally (wall-clock timings are never bit-stable).
pub fn scrub_field(line: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find(&needle) {
        let after = at + needle.len();
        out.push_str(&rest[..after]);
        out.push('0');
        rest = rest[after..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Serializes events with every wall-clock field zeroed, so two runs can
/// be compared structurally.
pub fn normalized_events(recorder: &MemoryRecorder) -> Vec<String> {
    recorder
        .events()
        .iter()
        .map(|e| {
            let line = serde_json::to_string(e).unwrap();
            scrub_field(&scrub_field(&line, "elapsed_ns"), "backoff_ns")
        })
        .collect()
}

/// FNV-1a-64 over the lines, each followed by `\n`.
pub fn fnv1a64(lines: &[String]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for &byte in line.as_bytes().iter().chain(b"\n") {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Asserts that a finished run (traced into `recorder`) reproduces
/// `reference` field by field, then that its next suggestion does too.
pub fn assert_reproduces(t: &mut Tuner, recorder: &MemoryRecorder, reference: &SerialReference) {
    let seed = reference.seed;
    let history = t.history();
    assert_eq!(history.trials(), reference.trials, "seed {seed}: trials");
    assert_eq!(
        history.n_failures(),
        reference.failures,
        "seed {seed}: failures"
    );
    let bits: Vec<u64> = history.objectives().iter().map(|y| y.to_bits()).collect();
    assert_eq!(bits, reference.objective_bits, "seed {seed}: objectives");
    let configs: Vec<String> = history.configs().iter().map(config_string).collect();
    assert_eq!(configs, reference.configs, "seed {seed}: configurations");
    assert_eq!(t.stalls(), reference.stalls, "seed {seed}: stalls");
    assert_eq!(
        fnv1a64(&normalized_events(recorder)),
        reference.trace_fnv,
        "seed {seed}: trace digest"
    );
    if let Some(next) = reference.next_suggestion {
        let suggested = t.suggest().map(|c| config_string(&c));
        assert_eq!(suggested.as_deref(), Some(next), "seed {seed}: next pick");
    }
}
