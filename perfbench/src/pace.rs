//! The host's pace: fixed work of the benchmark's own, timed between the
//! measured stretches of a run. On a shared host the same code runs up to
//! half again as slow from one minute to the next. Each measured time is
//! scaled by the pace read just before and just after it, to what it would
//! be at a nominal pace; the reference work calls no crate of the
//! repository, so a change to the program moves the scaled figures as much
//! as the raw ones.

use std::collections::HashMap;
use std::hint::black_box;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::stats::ms;

/// The nominal pace: the reference kernel's wall time, in ms, with one
/// copy on each core at once. It is about the kernel's time on the 2-core
/// host the benchmark was tuned on, so scaled figures read close to that
/// host's seconds.
pub const NOMINAL_MS: f64 = 40.0;

/// Kernel runs per core in one pace reading.
const SAMPLES: usize = 4;

/// The kernel's inputs: distinct words, titles built from them, and the
/// titles each title is compared with.
const VOCABULARY: usize = 1 << 15;
const TITLES: usize = 12_000;
const PARTNERS: usize = 4;

/// The reference kernel: the kind of work ingest does — short strings
/// built, split into sorted token sets, counted in a hash map and compared
/// pairwise — over a working set of a few MiB fixed by `seed`. Returns a
/// checksum.
fn kernel(seed: u64) -> u64 {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let vocabulary: Vec<String> = (0..VOCABULARY)
        .map(|_| {
            let len = 3 + next() % 8;
            (0..len)
                .map(|_| char::from(b'a' + (next() % 26) as u8))
                .collect()
        })
        .collect();
    let titles: Vec<String> = (0..TITLES)
        .map(|_| {
            let words = 4 + next() % 8;
            (0..words)
                .map(|_| vocabulary[(next() % VOCABULARY as u64) as usize].as_str())
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    let mut counts: HashMap<&str, u32> = HashMap::new();
    let tokens: Vec<Vec<&str>> = titles
        .iter()
        .map(|title| {
            let mut words: Vec<&str> = title.split(' ').collect();
            for word in &words {
                *counts.entry(word).or_default() += 1;
            }
            words.sort_unstable();
            words.dedup();
            words
        })
        .collect();
    let mut shared = 0u64;
    for a in &tokens {
        for _ in 0..PARTNERS {
            let b = &tokens[(next() % TITLES as u64) as usize];
            let (mut x, mut y) = (0, 0);
            while x < a.len() && y < b.len() {
                match a[x].cmp(b[y]) {
                    std::cmp::Ordering::Less => x += 1,
                    std::cmp::Ordering::Greater => y += 1,
                    std::cmp::Ordering::Equal => {
                        shared += 1;
                        x += 1;
                        y += 1;
                    }
                }
            }
        }
    }
    shared + counts.len() as u64
}

/// One pace reading: `SAMPLES` kernel runs per core, pulled from one
/// shared counter by one thread per core, as `rememberr_par` hands out
/// work; returns the batch's wall time over the runs each thread made on
/// average, in ms. A core that runs slower makes fewer runs, as it takes
/// fewer chunks of a parallel map.
pub fn read() -> f64 {
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let runs = (SAMPLES * threads) as u64;
    let next = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let run = next.fetch_add(1, Ordering::Relaxed);
                if run >= runs {
                    break;
                }
                black_box(kernel(run));
            });
        }
    });
    ms(start.elapsed()) / SAMPLES as f64
}

/// The factor that scales a time measured between the readings `before`
/// and `after` to nominal pace; a rate is divided by it.
fn scale(before: f64, after: f64) -> f64 {
    NOMINAL_MS / ((before + after) / 2.0)
}

/// Pace readings taken at the ends of consecutive measured stretches, so
/// each reading closes one stretch and opens the next.
pub struct Pacer {
    /// Every reading so far, in ms, oldest first.
    pub readings: Vec<f64>,
}

impl Pacer {
    /// Takes the reading that opens the first stretch.
    pub fn start() -> Pacer {
        Pacer {
            readings: vec![read()],
        }
    }

    /// Closes the current stretch with a new reading; returns the factor
    /// that scales a time measured in it to nominal pace.
    pub fn lap(&mut self) -> f64 {
        let before = *self.readings.last().expect("start takes a reading");
        let after = read();
        self.readings.push(after);
        scale(before, after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        assert_eq!(kernel(5), kernel(5));
        assert_ne!(kernel(5), kernel(6));
    }

    #[test]
    fn scaling_undoes_a_uniform_slowdown() {
        // A stretch measured while the host ran at half the nominal pace.
        assert_eq!(scale(2.0 * NOMINAL_MS, 2.0 * NOMINAL_MS), 0.5);
        assert_eq!(scale(NOMINAL_MS, 3.0 * NOMINAL_MS), 0.5);
    }
}
