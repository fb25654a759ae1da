//! The FFTW-style wisdom store (§4.3.2).
//!
//! Empirically determined blocking parameters are remembered per problem
//! shape so the (relatively slow) search runs once per layer shape and
//! machine. The on-disk format is a trivially greppable text file:
//!
//! ```text
//! # wino-gemm wisdom v1
//! r784_c256_cp256_t36_th64 = 14 128 128
//! ```
//!
//! Some older files carry a fourth number per line; it is read and
//! ignored, and never written.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;

use wino_simd::S;

use crate::micro::MAX_N_BLK;
use crate::model::BlockShape;

/// Thread-safe wisdom map: problem key → best blocking.
#[derive(Debug, Default)]
pub struct Wisdom {
    map: Mutex<HashMap<String, BlockShape>>,
}

impl Wisdom {
    pub fn new() -> Wisdom {
        Wisdom::default()
    }

    /// Canonical key for a batched-GEMM problem: `rows × c → cp`, `t`
    /// matrices, `threads` threads.
    pub fn key(rows: usize, c: usize, cp: usize, t: usize, threads: usize) -> String {
        format!("r{rows}_c{c}_cp{cp}_t{t}_th{threads}")
    }

    /// As [`Wisdom::key`], extended with a conv-geometry scenario suffix
    /// (`_s2x2_d1x1_g4`). The identity geometry (all strides and
    /// dilations 1, one group) produces exactly [`Wisdom::key`]'s output,
    /// so wisdom files written before the dispatch layer existed keep
    /// resolving, and files written now load under old readers (the
    /// suffix only ever changes the key, never the value-line format). A
    /// corrupted suffix degrades to a lookup miss — the analytic model
    /// fallback — never an error.
    #[allow(clippy::too_many_arguments)] // one argument per key component
    pub fn scenario_key(
        rows: usize,
        c: usize,
        cp: usize,
        t: usize,
        threads: usize,
        stride: &[usize],
        dilation: &[usize],
        groups: usize,
    ) -> String {
        let mut key = Self::key(rows, c, cp, t, threads);
        let identity =
            stride.iter().all(|&s| s == 1) && dilation.iter().all(|&d| d == 1) && groups == 1;
        if !identity {
            let join = |v: &[usize]| {
                v.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("x")
            };
            key.push_str(&format!("_s{}_d{}_g{}", join(stride), join(dilation), groups));
        }
        key
    }

    pub fn get(&self, key: &str) -> Option<BlockShape> {
        self.map.lock().unwrap().get(key).copied()
    }

    pub fn insert(&self, key: String, shape: BlockShape) {
        self.map.lock().unwrap().insert(key, shape);
    }

    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Load wisdom from a text file. Unknown or malformed lines are
    /// ignored (forward compatibility), comments start with `#`; even
    /// binary garbage only yields an empty store, never an error — the
    /// caller's analytic-model fallback must always be reachable. An
    /// entry no micro-kernel accepts — `n_blk` outside
    /// `1..=`[`MAX_N_BLK`], or a `c_blk` / `cp_blk` that is zero or not a
    /// multiple of the vector width — is malformed and ignored the same
    /// way.
    pub fn load(path: &Path) -> io::Result<Wisdom> {
        let bytes = std::fs::read(path)?;
        Ok(Self::parse(&String::from_utf8_lossy(&bytes)))
    }

    /// The lossy line parser behind [`Wisdom::load`].
    fn parse(text: &str) -> Wisdom {
        let w = Wisdom::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, rest)) = line.split_once('=') else { continue };
            let nums: Vec<usize> =
                rest.split_whitespace().filter_map(|s| s.parse().ok()).collect();
            let channel_block = |b: usize| b > 0 && b.is_multiple_of(S);
            if (nums.len() == 3 || nums.len() == 4)
                && (1..=MAX_N_BLK).contains(&nums[0])
                && channel_block(nums[1])
                && channel_block(nums[2])
            {
                w.insert(
                    key.trim().to_string(),
                    BlockShape { n_blk: nums[0], c_blk: nums[1], cp_blk: nums[2] },
                );
            }
        }
        w
    }

    /// Persist to a text file (sorted keys, stable diffs).
    ///
    /// The write is atomic: the document is staged in a sibling temp file
    /// and renamed over `path` only once fully flushed, so a process
    /// killed mid-save (OOM killer, rlimit abort, plain SIGKILL) leaves
    /// either the previous wisdom intact or the complete new file — never
    /// a truncated one that would silently shed entries on the next load.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let map = self.map.lock().unwrap();
        let mut keys: Vec<&String> = map.keys().collect();
        keys.sort();
        let mut text = String::from("# wino-gemm wisdom v1\n");
        for k in keys {
            let s = map[k];
            text.push_str(&format!("{k} = {} {} {}\n", s.n_blk, s.c_blk, s.cp_blk));
        }
        // Same directory as the target so the rename cannot cross a
        // filesystem boundary (rename(2) is only atomic within one).
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let result = (|| {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            // Data must be durable before the rename publishes the name,
            // or a crash could expose a complete-looking empty file.
            f.sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if result.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::default_shape;

    #[test]
    fn roundtrip_through_file() {
        let dir = std::env::temp_dir().join(format!("wino-wisdom-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wisdom.txt");

        let w = Wisdom::new();
        w.insert(Wisdom::key(784, 256, 256, 36, 64), BlockShape { n_blk: 6, c_blk: 128, cp_blk: 128 });
        w.insert(Wisdom::key(100, 64, 64, 16, 4), BlockShape { n_blk: 4, c_blk: 64, cp_blk: 64 });
        w.save(&path).unwrap();

        let loaded = Wisdom::load(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(
            loaded.get(&Wisdom::key(784, 256, 256, 36, 64)),
            Some(BlockShape { n_blk: 6, c_blk: 128, cp_blk: 128 })
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_lines_are_skipped() {
        let dir = std::env::temp_dir().join(format!("wino-wisdom-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wisdom.txt");
        std::fs::write(&path, "# comment\n\ngarbage\nkey = 1 2\nok = 4 64 64\n").unwrap();
        let w = Wisdom::load(&path).unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(w.get("ok"), Some(BlockShape { n_blk: 4, c_blk: 64, cp_blk: 64 }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_or_truncated_files_load_without_panicking() {
        let dir =
            std::env::temp_dir().join(format!("wino-wisdom-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // A grab bag of damage: binary noise, truncated mid-line, too
        // many fields, negative and overflowing numbers, channel blocks
        // no kernel accepts. None may panic; none may produce a usable
        // entry except the intact ones.
        let cases: &[(&str, &[u8])] = &[
            ("binary", b"\x00\xff\xfe wino \x01\x02 = 8 64"),
            ("truncated", b"r784_c256_cp256_t36_th64 = 14 12"),
            ("too_many", b"k = 1 2 3 4 5\n"),
            ("negative", b"k = -8 64 64\n"),
            ("overflow", b"k = 99999999999999999999999999 64 64\n"),
            ("zero_c_blk", b"k = 8 0 64\n"),
            ("zero_cp_blk", b"k = 8 64 0\n"),
            ("unaligned_c_blk", b"k = 8 24 64\n"),
            ("unaligned_cp_blk", b"k = 8 64 40\n"),
            ("legacy_four", b"k = 4 64 64 7\n"),
        ];
        for (name, bytes) in cases {
            let path = dir.join(format!("{name}.txt"));
            std::fs::write(&path, bytes).unwrap();
            let w = Wisdom::load(&path).unwrap();
            match *name {
                // The fourth number of an older file is read and ignored:
                // the blocking is intact, and saving writes three numbers.
                "legacy_four" => {
                    assert_eq!(w.get("k"), Some(BlockShape { n_blk: 4, c_blk: 64, cp_blk: 64 }));
                    w.save(&path).unwrap();
                    let text = std::fs::read_to_string(&path).unwrap();
                    assert_eq!(text, "# wino-gemm wisdom v1\nk = 4 64 64\n");
                }
                _ => assert!(w.is_empty(), "case {name} produced entries"),
            }
        }

        // After any of these failures the caller's fallback — the
        // analytic model — must still produce a legal blocking.
        let shape = default_shape(64, 64, 784);
        assert_eq!((64 % shape.c_blk, 64 % shape.cp_blk), (0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_save_never_corrupts_existing_wisdom() {
        // Simulate a process killed mid-save: the victim's staging file
        // sits in the directory with partial content (exactly what a
        // SIGKILL between create and rename leaves behind). The published
        // wisdom must be untouched, and a later save must still succeed.
        let dir = std::env::temp_dir().join(format!("wino-wisdom-kill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wisdom.txt");

        let w = Wisdom::new();
        let key = Wisdom::key(784, 256, 256, 36, 64);
        w.insert(key.clone(), BlockShape { n_blk: 6, c_blk: 128, cp_blk: 128 });
        w.save(&path).unwrap();

        // The dead process's half-written staging file (note: a *different*
        // pid than ours, as it would be in practice).
        std::fs::write(dir.join("wisdom.tmp.99999"), "# wino-gemm wisdom v1\nr784_c2").unwrap();

        let loaded = Wisdom::load(&path).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded.get(&key), Some(BlockShape { n_blk: 6, c_blk: 128, cp_blk: 128 }));

        // A survivor process saving over the same path is unaffected.
        w.insert(Wisdom::key(1, 2, 3, 4, 5), BlockShape { n_blk: 1, c_blk: 16, cp_blk: 16 });
        w.save(&path).unwrap();
        assert_eq!(Wisdom::load(&path).unwrap().len(), 2);
        // Our own staging file must not survive a successful save.
        assert!(!path.with_extension(format!("tmp.{}", std::process::id())).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_loads_see_whole_files_only() {
        // The atomicity claim, exercised live: one thread rewrites the
        // file in a loop alternating between a 1-entry and a 30-entry
        // store while readers hammer `load`. Every load must observe one
        // of the two complete documents — any other entry count means a
        // torn write was published.
        let dir = std::env::temp_dir().join(format!("wino-wisdom-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wisdom.txt");

        let small = Wisdom::new();
        small.insert(Wisdom::key(1, 2, 3, 4, 5), BlockShape { n_blk: 1, c_blk: 16, cp_blk: 16 });
        let big = Wisdom::new();
        for i in 0..30 {
            big.insert(
                Wisdom::key(i, 2, 3, 4, 5),
                BlockShape { n_blk: 4, c_blk: 64, cp_blk: 64 },
            );
        }
        small.save(&path).unwrap();

        std::thread::scope(|s| {
            let writer_path = path.clone();
            let small = &small;
            let big = &big;
            s.spawn(move || {
                for i in 0..40 {
                    if i % 2 == 0 { big } else { small }.save(&writer_path).unwrap();
                }
            });
            for _ in 0..3 {
                let reader_path = path.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        let n = Wisdom::load(&reader_path).unwrap().len();
                        assert!(n == 1 || n == 30, "torn wisdom file observed: {n} entries");
                    }
                });
            }
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(Wisdom::load(Path::new("/nonexistent/wisdom.txt")).is_err());
    }

    #[test]
    fn keys_distinguish_problems() {
        assert_ne!(Wisdom::key(1, 2, 3, 4, 5), Wisdom::key(1, 2, 3, 4, 6));
        assert_ne!(Wisdom::key(10, 2, 3, 4, 5), Wisdom::key(1, 2, 3, 4, 5));
    }

    #[test]
    fn identity_scenario_key_is_the_v1_key() {
        // Lossless backward compatibility: a stride-1, dense layer keys
        // exactly as it did before the dispatch layer existed, so old
        // wisdom files keep resolving for the layers they were tuned on.
        assert_eq!(
            Wisdom::scenario_key(784, 256, 256, 36, 64, &[1, 1], &[1, 1], 1),
            Wisdom::key(784, 256, 256, 36, 64)
        );
        assert_eq!(
            Wisdom::scenario_key(100, 64, 64, 16, 4, &[1, 1, 1], &[1, 1, 1], 1),
            Wisdom::key(100, 64, 64, 16, 4)
        );
    }

    #[test]
    fn scenario_keys_distinguish_geometries() {
        let base = Wisdom::scenario_key(784, 256, 256, 36, 64, &[1, 1], &[1, 1], 1);
        let strided = Wisdom::scenario_key(784, 256, 256, 36, 64, &[2, 2], &[1, 1], 1);
        let dilated = Wisdom::scenario_key(784, 256, 256, 36, 64, &[1, 1], &[2, 2], 1);
        let grouped = Wisdom::scenario_key(784, 256, 256, 36, 64, &[1, 1], &[1, 1], 4);
        assert_eq!(strided, format!("{base}_s2x2_d1x1_g1"));
        assert_eq!(dilated, format!("{base}_s1x1_d2x2_g1"));
        assert_eq!(grouped, format!("{base}_s1x1_d1x1_g4"));
        let all = [&base, &strided, &dilated, &grouped];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn v1_files_resolve_scenario_lookups_and_vice_versa() {
        let dir =
            std::env::temp_dir().join(format!("wino-wisdom-scen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wisdom.txt");

        // A pre-dispatch ("v1") file knows nothing of geometry suffixes.
        std::fs::write(&path, "# wino-gemm wisdom v1\nr784_c256_cp256_t36_th64 = 6 128 128\n")
            .unwrap();
        let w = Wisdom::load(&path).unwrap();
        // Identity-geometry lookups hit the old entry losslessly…
        assert_eq!(
            w.get(&Wisdom::scenario_key(784, 256, 256, 36, 64, &[1, 1], &[1, 1], 1)),
            Some(BlockShape { n_blk: 6, c_blk: 128, cp_blk: 128 })
        );
        // …while strided/grouped lookups miss (analytic-model fallback),
        // rather than silently reusing a blocking tuned for a different
        // effective problem.
        assert_eq!(
            w.get(&Wisdom::scenario_key(784, 256, 256, 36, 64, &[2, 2], &[1, 1], 1)),
            None
        );

        // The converse: a store holding both identity and scenario
        // entries round-trips through the unchanged v1 line format, and
        // an old reader (same loader) sees every entry.
        w.insert(
            Wisdom::scenario_key(784, 256, 256, 36, 64, &[2, 2], &[1, 1], 4),
            BlockShape { n_blk: 5, c_blk: 64, cp_blk: 64 },
        );
        w.save(&path).unwrap();
        let reloaded = Wisdom::load(&path).unwrap();
        assert_eq!(reloaded.len(), 2);
        assert_eq!(
            reloaded.get(&Wisdom::scenario_key(784, 256, 256, 36, 64, &[2, 2], &[1, 1], 4)),
            Some(BlockShape { n_blk: 5, c_blk: 64, cp_blk: 64 })
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_scenario_suffixes_degrade_to_misses() {
        let dir =
            std::env::temp_dir().join(format!("wino-wisdom-scor-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wisdom.txt");

        // Mangled geometry suffixes: the loader keeps the lines (the key
        // is opaque to it, the values are well-formed), but no canonical
        // scenario_key ever reproduces them, so lookups miss and the
        // planner falls back to the analytic model. Nothing panics.
        std::fs::write(
            &path,
            "r784_c256_cp256_t36_th64_s2xbogus_d1x1_g4 = 6 128 128\n\
             r784_c256_cp256_t36_th64_sNaN_dNaN_g-1 = 6 128 128\n\
             r784_c256_cp256_t36_th64_s2x2 = 6 128 128\n",
        )
        .unwrap();
        let w = Wisdom::load(&path).unwrap();
        for stride in [&[1usize, 1][..], &[2, 2]] {
            for groups in [1usize, 4] {
                let key = Wisdom::scenario_key(784, 256, 256, 36, 64, stride, &[1, 1], groups);
                assert_eq!(w.get(&key), None, "corrupt suffix resolved for {key}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn entries_no_kernel_accepts_are_malformed() {
        // Every panel height 1..=30 is loadable on every backend (the
        // micro-kernel strips it); 0 and 31 would panic there, so they
        // are dropped here.
        let text = "tall = 30 128 128 4\nshort = 1 64 64\nzero = 0 64 64\nover = 31 64 64 2\n";
        let w = Wisdom::parse(text);
        assert_eq!(w.get("tall"), Some(BlockShape { n_blk: 30, c_blk: 128, cp_blk: 128 }));
        assert_eq!(w.get("short"), Some(BlockShape { n_blk: 1, c_blk: 64, cp_blk: 64 }));
        assert_eq!(w.get("zero"), None);
        assert_eq!(w.get("over"), None);
    }
}
