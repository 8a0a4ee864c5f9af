//! The `slo_rps` rate search: the highest offered rate whose tail latency
//! (timed from due time) meets the workload's limit with no growing
//! generator backlog. A failed or refused request misses the limit.

use crate::stats;

/// How one probe at one offered rate went.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Verdict {
    /// Tail percentile used (p99 at ≥ 1 000 samples).
    pub q: f64,
    /// Latency at that percentile, ms (infinite when failures reach it).
    pub tail_ms: f64,
    /// Mean lateness of the last quarter minus the first quarter, ms.
    pub backlog_growth_ms: f64,
    pub passed: bool,
}

/// Judges one probe. `latency_ms[i]` is `None` for a failed request;
/// `lateness_ms` is in send order. The backlog grows when the last
/// quarter of requests went out later than the first quarter by more
/// than a quarter of the limit.
pub fn judge(latency_ms: &[Option<f64>], lateness_ms: &[f64], limit_ms: f64) -> Verdict {
    let all: Vec<f64> = latency_ms.iter().map(|l| l.unwrap_or(f64::INFINITY)).collect();
    let sorted = stats::sorted(&all);
    let (q, tail_ms) = stats::tail(&sorted).unwrap_or((1.0, f64::INFINITY));
    let quarter = (lateness_ms.len() / 4).max(1);
    let backlog_growth_ms = stats::mean(&lateness_ms[lateness_ms.len() - quarter..])
        - stats::mean(&lateness_ms[..quarter]);
    let passed = tail_ms <= limit_ms && backlog_growth_ms <= limit_ms / 4.0;
    Verdict { q, tail_ms, backlog_growth_ms, passed }
}

/// One probe of the search.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    pub rate: f64,
    pub verdict: Verdict,
}

/// Finds the highest passing rate to within a factor `1 + resolution`.
/// `known` is an already-judged probe (the fixed-rate phase). The search
/// steps up by `step` until a probe fails (or down until one passes),
/// then bisects geometrically. It stops early, answering the highest
/// passing rate so far, after `max_probes` new probes or when `probe`
/// returns `None` (the caller's time budget is spent).
pub fn rate_search(
    known: Probe,
    step: f64,
    resolution: f64,
    max_probes: usize,
    probe: &mut dyn FnMut(f64) -> Option<Verdict>,
) -> (f64, Vec<Probe>) {
    let mut probes = Vec::new();
    let mut run = |rate: f64, probes: &mut Vec<Probe>| -> Option<bool> {
        if probes.len() >= max_probes {
            return None;
        }
        let verdict = probe(rate)?;
        probes.push(Probe { rate, verdict });
        Some(verdict.passed)
    };
    let (mut lo, mut hi) = if known.verdict.passed {
        let mut lo = known.rate;
        loop {
            match run(lo * step, &mut probes) {
                None => return (lo, probes),
                Some(true) => lo *= step,
                Some(false) => break (lo, lo * step),
            }
        }
    } else {
        let mut hi = known.rate;
        loop {
            match run(hi / step, &mut probes) {
                None => return (0.0, probes),
                Some(true) => break (hi / step, hi),
                Some(false) => hi /= step,
            }
        }
    };
    while hi / lo > 1.0 + resolution {
        let mid = (lo * hi).sqrt();
        match run(mid, &mut probes) {
            None => break,
            Some(true) => lo = mid,
            Some(false) => hi = mid,
        }
    }
    (lo, probes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single-server FIFO queue with deterministic service time
    /// `service_ms`, fed one request every `1000 / rate` ms: the latency
    /// from due time and the lateness of each request. Its threshold is
    /// known exactly: every request takes `service_ms` up to
    /// `1000 / service_ms` requests per second, and beyond that rate the
    /// backlog grows without bound.
    fn synthetic_queue(rate: f64, service_ms: f64, n: usize) -> (Vec<Option<f64>>, Vec<f64>) {
        let (mut free_at, gap) = (0.0f64, 1e3 / rate);
        let mut latency = Vec::with_capacity(n);
        let mut lateness = Vec::with_capacity(n);
        for i in 0..n {
            let due = i as f64 * gap;
            let start = due.max(free_at);
            free_at = start + service_ms;
            lateness.push(start - due);
            latency.push(Some(free_at - due));
        }
        (latency, lateness)
    }

    #[test]
    fn rate_search_finds_the_known_threshold_of_a_synthetic_queue() {
        // 1 ms service, 20 ms limit: capacity (and threshold) 1000/s.
        let limit_ms = 20.0;
        let mut probe = |rate: f64| {
            let (lat, late) = synthetic_queue(rate, 1.0, 20_000);
            Some(judge(&lat, &late, limit_ms))
        };
        assert!(probe(1000.0).unwrap().passed);
        assert!(!probe(1002.0).unwrap().passed, "a growing backlog must fail the probe");
        let known = Probe { rate: 250.0, verdict: probe(250.0).unwrap() };
        let (slo, probes) = rate_search(known, 1.5, 0.02, 20, &mut probe);
        assert!(slo <= 1000.0 && slo > 1000.0 / 1.02, "slo {slo}");
        // The answer is bracketed to the resolution by a failing probe.
        let failing = probes.iter().filter(|p| !p.verdict.passed).map(|p| p.rate);
        let hi = failing.fold(f64::INFINITY, f64::min);
        assert!(hi / slo <= 1.02 + 1e-9, "bracket {slo}..{hi}");
    }

    #[test]
    fn rate_search_steps_down_from_a_failing_start() {
        let mut probe = |rate: f64| {
            let passed = rate <= 300.0;
            Some(Verdict { q: 0.99, tail_ms: 0.0, backlog_growth_ms: 0.0, passed })
        };
        let known = Probe { rate: 1000.0, verdict: probe(1000.0).unwrap() };
        let (slo, _) = rate_search(known, 1.5, 0.01, 30, &mut probe);
        assert!(slo <= 300.0 && slo > 297.0, "slo {slo}");
    }

    #[test]
    fn rate_search_stops_when_the_budget_is_spent() {
        let mut left = 3;
        let mut probe = |rate: f64| {
            left -= 1;
            (left >= 0).then_some(Verdict {
                q: 0.99,
                tail_ms: 0.0,
                backlog_growth_ms: 0.0,
                passed: rate <= 500.0,
            })
        };
        let known = Probe {
            rate: 100.0,
            verdict: Verdict { q: 0.99, tail_ms: 0.0, backlog_growth_ms: 0.0, passed: true },
        };
        // 200 and 400 pass, the third probe (800) fails, then time is up.
        let (slo, probes) = rate_search(known, 2.0, 0.01, 30, &mut probe);
        assert_eq!(slo, 400.0);
        assert_eq!(probes.len(), 3);
    }

    #[test]
    fn failures_miss_the_limit() {
        let mut lat: Vec<Option<f64>> = vec![Some(1.0); 1000];
        let late = vec![0.0; 1000];
        assert!(judge(&lat, &late, 5.0).passed);
        for l in lat.iter_mut().take(11) {
            *l = None;
        }
        let v = judge(&lat, &late, 5.0);
        assert!(!v.passed && v.tail_ms.is_infinite());
    }
}
