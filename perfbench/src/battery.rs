//! The fixed `/query` + `/count` battery every workload runs, and its
//! in-process rendering: the oracle each served body is compared against.

use std::hint::black_box;
use std::num::NonZeroUsize;
use std::time::Instant;

use rememberr::{Database, Query};
use rememberr_model::{Context, Effect, Trigger};
use rememberr_serve::http::{parse_query_string, Request};
use rememberr_serve::router::{parse_query, render_count_body, render_query_body, DEFAULT_LIMIT};

use crate::stats::quantile;
use crate::Tally;

/// Facet, date-window and composite shapes: the selective queries the
/// analysis figures ask, a date window, and multi-facet composites.
fn targets() -> Vec<String> {
    vec![
        "/count?vendor=intel&unique=1".to_string(),
        "/count?vendor=amd&unique=1".to_string(),
        "/query?vendor=intel&workaround=bios&limit=5".to_string(),
        "/count?after=2016-01-01&before=2019-01-01&unique=1".to_string(),
        "/query?annotated=1&min-triggers=2&limit=5".to_string(),
        "/count?fix=no-fix-planned&vendor=amd".to_string(),
        format!("/query?trigger={}&unique=1&limit=5", Trigger::ALL[0]),
        format!("/count?trigger={}&vendor=intel", Trigger::ALL[3]),
        format!("/count?context={}&unique=1", Context::ALL[2]),
        format!("/query?effect={}&unique=1&limit=5", Effect::ALL[1]),
        format!("/count?effect={}&vendor=amd", Effect::ALL[0]),
        format!(
            "/count?trigger={}&effect={}",
            Trigger::ALL[1],
            Effect::ALL[2]
        ),
    ]
}

/// One battery target: its URL, the request bytes that fetch it, and the
/// query the server's router parses from it.
pub struct Target {
    /// Path and query string.
    pub url: String,
    /// The keep-alive `GET` request for `url`.
    pub request: Vec<u8>,
    query: Query,
    /// `Some(limit)` for `/query`, `None` for `/count`.
    limit: Option<usize>,
}

/// The battery, parsed by the server's own router code.
pub struct Battery {
    /// Targets in cycle order.
    pub targets: Vec<Target>,
}

impl Battery {
    /// Parses every target through `router::parse_query`.
    pub fn new() -> Result<Battery, String> {
        let targets = targets()
            .into_iter()
            .map(|url| {
                let (path, raw) = url.split_once('?').unwrap_or((url.as_str(), ""));
                let request = Request {
                    method: "GET".to_string(),
                    path: path.to_string(),
                    params: parse_query_string(raw)?,
                    close: false,
                    arrived: Instant::now(),
                };
                let query = parse_query(&request)?;
                let limit = match path {
                    "/query" => Some(match request.param("limit") {
                        Some(text) => text.parse().map_err(|_| format!("bad limit in {url}"))?,
                        None => DEFAULT_LIMIT,
                    }),
                    _ => None,
                };
                Ok(Target {
                    request: format!("GET {url} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes(),
                    url,
                    query,
                    limit,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Battery { targets })
    }

    /// Number of targets.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// The body for target `i` over `db`, through the default engine.
    pub fn render(&self, i: usize, db: &Database) -> String {
        let target = &self.targets[i];
        let index = db.query_index();
        match target.limit {
            Some(limit) => render_query_body(&target.query.run_indexed(index, db), limit),
            None => render_count_body(target.query.count_indexed(index, db)),
        }
    }

    /// Every target's body over `db`.
    pub fn expected(&self, db: &Database) -> Vec<String> {
        (0..self.len()).map(|i| self.render(i, db)).collect()
    }

    /// Runs the battery in-process over `db`, with no HTTP: `passes`
    /// passes split over one thread per core, each query timed alone and
    /// its body checked against `expected`.
    pub fn run_inprocess(
        &self,
        db: &Database,
        expected: &[String],
        passes: usize,
        tally: &mut Tally,
    ) -> InProcess {
        let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let per_thread = passes.div_ceil(threads);
        let runs: Vec<(Vec<Vec<u32>>, Tally)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut times = vec![Vec::with_capacity(per_thread); self.len()];
                        let mut tally = Tally::default();
                        for _ in 0..per_thread {
                            for (i, want) in expected.iter().enumerate() {
                                let start = Instant::now();
                                let body = black_box(self.render(i, db));
                                let elapsed = start.elapsed().as_nanos();
                                times[i].push(u32::try_from(elapsed).unwrap_or(u32::MAX));
                                let url = &self.targets[i].url;
                                tally.record(
                                    (body != *want).then(|| format!("in-process body of {url}")),
                                );
                            }
                        }
                        (times, tally)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("in-process query thread panicked"))
                .collect()
        });
        let mut merged = vec![Vec::new(); self.len()];
        for (times, thread_tally) in runs {
            for (all, mine) in merged.iter_mut().zip(times) {
                all.extend(mine);
            }
            tally.merge(thread_tally);
        }
        let mut medians_ns: Vec<f64> = merged
            .into_iter()
            .map(|mut times| {
                times.sort_unstable();
                quantile(&times, 0.5)
            })
            .collect();
        medians_ns.sort_by(f64::total_cmp);
        // Every thread runs the whole battery once per pass.
        let rps = 1e9 * (threads * self.len()) as f64 / medians_ns.iter().sum::<f64>();
        InProcess {
            medians_ns,
            queries: threads * per_thread * self.len(),
            rps,
        }
    }
}

/// What an in-process battery run measured.
pub struct InProcess {
    /// Each target's median time, in ns, ascending.
    pub medians_ns: Vec<f64>,
    /// Queries run.
    pub queries: usize,
    /// Queries per second over all threads, at the median times.
    pub rps: f64,
}
