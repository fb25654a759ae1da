//! The load generator: a one-client closed loop for the kernel and
//! network workloads and the Poisson schedule of the serve workloads'
//! open loop. It runs on the calling thread only.

use std::time::Instant;

use wino_rng::Rng;

/// What one closed-loop window produced.
pub struct ClosedLoop {
    /// Time of each op that returned `Ok`, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// When each of those ops began, in seconds from the window's start.
    pub starts_s: Vec<f64>,
    /// Ops that returned an error.
    pub errors: u64,
}

/// Call `op` back to back for `seconds`, timing each call.
pub fn closed_loop(seconds: f64, mut op: impl FnMut() -> bool) -> ClosedLoop {
    let mut latencies_ms = Vec::new();
    let mut starts_s = Vec::new();
    let mut errors = 0;
    let begin = Instant::now();
    loop {
        let t = Instant::now();
        let at = (t - begin).as_secs_f64();
        if at >= seconds {
            break;
        }
        if op() {
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            starts_s.push(at);
        } else {
            errors += 1;
        }
    }
    ClosedLoop {
        latencies_ms,
        starts_s,
        errors,
    }
}

/// Due times (seconds from the window's start, ascending, all below
/// `seconds`) of a Poisson process of `rate` arrivals per second. The same
/// seed gives the same schedule.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut due = Vec::with_capacity((rate * seconds * 1.1) as usize);
    let mut t = 0.0;
    loop {
        // Inverse-CDF draw of an exponential gap; 1 − u is in (0, 1].
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= seconds {
            return due;
        }
        due.push(t);
    }
}
