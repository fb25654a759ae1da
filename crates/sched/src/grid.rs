//! The paper's recursive static partitioner (§4.5).
//!
//! Work is modelled as a D-dimensional grid of equal tasks
//! `(P₁ × P₂ × … × P_D)`, most significant dimension first. The grid is
//! divided among `K` threads recursively:
//!
//! 1. `K = 1`: the whole (sub-)grid goes to that thread.
//! 2. Otherwise find the most significant dimension `d` with
//!    `x_d = gcd(P_d, K) > 1`, slice the grid along `d` into `x_d` equal
//!    sub-grids and recurse with `K / x_d` threads each.
//! 3. If every gcd is 1, slice along the dimension with the largest extent
//!    into `K` chunks as equally as possible (some threads get slightly
//!    more work — the paper accepts this).
//!
//! Because batch size, channel counts and thread counts are typically
//! powers of two, case 2 nearly always divides the work exactly. Each
//! thread receives one contiguous hyper-rectangle, so iteration order
//! within a thread walks the least significant dimensions first —
//! neighbouring tiles that share cache lines stay on the same core.

/// A half-open hyper-rectangle of task indices: thread-local work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskBox {
    pub start: Vec<usize>,
    pub end: Vec<usize>,
}

impl TaskBox {
    /// Number of tasks in the box.
    pub fn len(&self) -> usize {
        self.start
            .iter()
            .zip(&self.end)
            .map(|(&s, &e)| e.saturating_sub(s))
            .product()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visit every task in the box in row-major order, passing the flat
    /// index of the task within the *full* grid `dims`.
    pub fn for_each_flat(&self, dims: &[usize], mut f: impl FnMut(usize)) {
        if self.is_empty() {
            return;
        }
        let d = dims.len();
        let mut coords = self.start.clone();
        loop {
            // Flat index (row-major).
            let mut idx = 0;
            for (c, dim) in coords.iter().zip(dims) {
                idx = idx * dim + c;
            }
            f(idx);
            // Increment within the box.
            let mut k = d;
            loop {
                if k == 0 {
                    return;
                }
                k -= 1;
                coords[k] += 1;
                if coords[k] < self.end[k] {
                    break;
                }
                coords[k] = self.start[k];
            }
        }
    }
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// A static assignment of a task grid to `K` threads.
#[derive(Clone, Debug)]
pub struct GridPartition {
    pub dims: Vec<usize>,
    pub boxes: Vec<TaskBox>,
}

impl GridPartition {
    /// Partition grid `dims` among `threads` threads.
    pub fn new(dims: &[usize], threads: usize) -> GridPartition {
        assert!(threads > 0, "need at least one thread");
        assert!(!dims.is_empty(), "grid must have at least one dimension");
        let mut boxes = Vec::with_capacity(threads);
        let root = TaskBox { start: vec![0; dims.len()], end: dims.to_vec() };
        split(root, threads, &mut boxes);
        debug_assert_eq!(boxes.len(), threads);
        GridPartition { dims: dims.to_vec(), boxes }
    }

    /// Total tasks in the grid.
    pub fn total(&self) -> usize {
        self.dims.iter().product()
    }
}

fn split(b: TaskBox, threads: usize, out: &mut Vec<TaskBox>) {
    if threads == 1 {
        out.push(b);
        return;
    }
    // Case 2: most significant dimension with gcd > 1.
    for d in 0..b.start.len() {
        let extent = b.end[d] - b.start[d];
        let x = gcd(extent, threads);
        if x > 1 {
            let chunk = extent / x;
            for i in 0..x {
                let mut sub = b.clone();
                sub.start[d] = b.start[d] + i * chunk;
                sub.end[d] = b.start[d] + (i + 1) * chunk;
                split(sub, threads / x, out);
            }
            return;
        }
    }
    // Case 3: no common divisor — slice the largest dimension as equally
    // as possible into `threads` chunks (some may be empty when the
    // extent is smaller than the thread count).
    let d = (0..b.start.len())
        .max_by_key(|&d| b.end[d] - b.start[d])
        .expect("non-empty dims");
    let extent = b.end[d] - b.start[d];
    let base = extent / threads;
    let rem = extent % threads;
    let mut pos = b.start[d];
    for i in 0..threads {
        let size = base + usize::from(i < rem);
        let mut sub = b.clone();
        sub.start[d] = pos;
        sub.end[d] = pos + size;
        pos += size;
        out.push(sub);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    impl TaskBox {
        /// Collect flat indices.
        fn flat_indices(&self, dims: &[usize]) -> Vec<usize> {
            let mut v = Vec::with_capacity(self.len());
            self.for_each_flat(dims, |i| v.push(i));
            v
        }
    }

    impl GridPartition {
        /// Largest per-thread task count (load-balance metric).
        fn max_load(&self) -> usize {
            self.boxes.iter().map(TaskBox::len).max().unwrap_or(0)
        }

        /// Smallest per-thread task count.
        fn min_load(&self) -> usize {
            self.boxes.iter().map(TaskBox::len).min().unwrap_or(0)
        }
    }

    fn check_exact_cover(dims: &[usize], threads: usize) -> GridPartition {
        let p = GridPartition::new(dims, threads);
        assert_eq!(p.boxes.len(), threads);
        let mut seen = HashSet::new();
        for b in &p.boxes {
            for idx in b.flat_indices(dims) {
                assert!(seen.insert(idx), "task {idx} assigned twice");
            }
        }
        assert_eq!(seen.len(), p.total(), "tasks dropped");
        p
    }

    #[test]
    fn power_of_two_grids_split_evenly() {
        // Stage-1 style grid: B × C/S × N_D × N_H × N_W.
        let p = check_exact_cover(&[64, 8, 4, 28, 28], 64);
        assert_eq!(p.max_load(), p.min_load(), "power-of-two split must be perfectly even");
        assert_eq!(p.max_load(), p.total() / 64);
    }

    #[test]
    fn most_significant_dimension_is_preferred() {
        // B = 8 divisible by 8 threads: split along B only; each thread's
        // box covers full trailing dims (cache-friendly contiguity).
        let p = GridPartition::new(&[8, 5, 7], 8);
        for (i, b) in p.boxes.iter().enumerate() {
            assert_eq!(b.start[0], i);
            assert_eq!(b.end[0], i + 1);
            assert_eq!(b.start[1..], [0, 0]);
            assert_eq!(b.end[1..], [5, 7]);
        }
    }

    #[test]
    fn coprime_fallback_is_nearly_even() {
        // dims 3×5, 4 threads: all gcds 1 → slice largest dim (5) into
        // 2,1,1,1 → loads 6,3,3,3.
        let p = check_exact_cover(&[3, 5], 4);
        assert!(p.max_load() - p.min_load() <= 3);
        assert_eq!(p.max_load(), 6);
    }

    #[test]
    fn single_thread_gets_everything() {
        let p = check_exact_cover(&[7, 11], 1);
        assert_eq!(p.boxes[0].len(), 77);
    }

    #[test]
    fn more_threads_than_tasks() {
        let p = check_exact_cover(&[2, 2], 16);
        // 4 tasks over 16 threads: 12 threads idle, never panics.
        assert_eq!(p.boxes.iter().filter(|b| !b.is_empty()).count(), 4);
    }

    #[test]
    fn mixed_factors() {
        // 6 threads, dims (4, 9): gcd(4,6)=2 → two halves with 3 threads;
        // then gcd(2,3)=1 but gcd(9,3)=3 → even split. Perfectly balanced.
        let p = check_exact_cover(&[4, 9], 6);
        assert_eq!(p.max_load(), 6);
        assert_eq!(p.min_load(), 6);
    }

    #[test]
    fn many_configurations_cover_exactly() {
        for dims in [vec![1], vec![13], vec![3, 4, 5], vec![2, 2, 2, 2, 2], vec![64, 4], vec![5, 5, 5]] {
            for threads in [1, 2, 3, 4, 5, 7, 8, 16, 61] {
                check_exact_cover(&dims, threads);
            }
        }
    }

    #[test]
    fn iteration_is_row_major_within_box() {
        let b = TaskBox { start: vec![1, 2], end: vec![3, 4] };
        let dims = [4, 5];
        assert_eq!(b.flat_indices(&dims), vec![7, 8, 12, 13]);
    }

    #[test]
    fn empty_box_yields_nothing() {
        let b = TaskBox { start: vec![2, 2], end: vec![2, 4] };
        assert!(b.is_empty());
        assert!(b.flat_indices(&[4, 4]).is_empty());
    }
}
