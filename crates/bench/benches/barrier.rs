//! Fork–join synchronisation cost (§4.5): the custom spin barrier and
//! static pool against `std::sync::Barrier`, on an empty task — the pure synchronisation overhead the paper's custom
//! primitive is designed to minimise.
//!
//! Plain `harness = false` benchmark: no registry dependencies. Run with
//! `cargo bench --bench barrier`.

use wino_sched::{Executor, SpinBarrier, StaticExecutor, ThreadPool};

const THREADS: usize = 4;
const ROUNDS: usize = 20_000;

fn time_per_round<F: FnMut()>(rounds: usize, mut f: F) -> f64 {
    let t0 = std::time::Instant::now();
    for _ in 0..rounds {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e9 / rounds as f64
}

fn main() {
    println!("bench,threads,ns_per_round");

    // Single-thread barrier crossing: the raw primitive's fast path.
    let solo = SpinBarrier::new(1);
    let ns = time_per_round(ROUNDS, || {
        solo.wait();
    });
    println!("spin_barrier_uncontended,1,{ns:.1}");

    let pool = ThreadPool::new(THREADS);
    let ns = time_per_round(ROUNDS, || {
        pool.run(|_tid| std::hint::black_box(())).expect("pool fork-join failed");
    });
    println!("static_pool_forkjoin,{THREADS},{ns:.1}");

    let exec = StaticExecutor::new(THREADS);
    let ns = time_per_round(ROUNDS, || {
        exec.run_grid(&[64], &|_, i| {
            std::hint::black_box(i);
        })
        .expect("static grid failed");
    });
    println!("static_grid_64_tasks,{THREADS},{ns:.1}");

    // Drop the spin pools before benchmarking the blocking std barrier:
    // their busy-wait workers would starve it on oversubscribed machines.
    drop(pool);
    drop(exec);

    // Library-primitive comparison, two participants (main + 1 worker).
    // The worker performs *exactly* `ROUNDS` rounds (communicated up
    // front), so there is no shutdown handshake to race on — a blocking
    // barrier paired with a free-running worker loop can deadlock when
    // the worker observes the stop flag between rounds while the main
    // thread is already committed to one more wait.
    {
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        let worker = {
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    barrier.wait();
                }
            })
        };
        let ns = time_per_round(ROUNDS, || {
            barrier.wait();
        });
        worker.join().unwrap();
        println!("std_barrier_round,2,{ns:.1}");
    }

    // The custom spin barrier in the same two-participant shape.
    {
        let barrier = std::sync::Arc::new(SpinBarrier::new(2));
        let worker = {
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    barrier.wait();
                }
            })
        };
        let ns = time_per_round(ROUNDS, || {
            barrier.wait();
        });
        worker.join().unwrap();
        println!("spin_barrier_round,2,{ns:.1}");
    }
}
