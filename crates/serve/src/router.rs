//! Route dispatch: URL parameters to [`Query`] values to response bodies.
//!
//! URL parameters are the CLI's `query` options (`vendor`, `design`,
//! `trigger`…) without the leading `--`, and both surfaces parse them with
//! the same code, [`Query::from_params`], so a URL and a CLI invocation
//! describing the same query cannot drift apart: they accept and refuse
//! the same things with the same words, and CLI `query` prints the
//! `/query` body. Rendering is a pure function of the request and the
//! snapshot — no timestamps, no worker identity — which is what makes
//! `identical request → byte-identical body` hold at any worker count and
//! lets the tests compare every served body with the same renderer over a
//! scan oracle of their own.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use rememberr::{DbEntry, Query};
use rememberr_model::write_zero_padded;

use crate::http::{Request, Response};
use crate::state::{LoadedSnapshot, ServeState};

/// Default `/query` render cap, matching the CLI's `--limit` default.
pub const DEFAULT_LIMIT: usize = 20;

/// What the router needs besides the request itself.
pub struct RouteCtx<'a> {
    /// The snapshot/hot-swap state.
    pub state: &'a ServeState,
    /// Whether the `/slow` test fixture is routable.
    pub slow_endpoint: bool,
    /// Set by `POST /shutdown`; the accept/worker loops poll it.
    pub shutdown: &'a AtomicBool,
}

/// Builds a [`Query`] from URL parameters through [`Query::from_params`],
/// rejecting unknown names.
///
/// # Errors
///
/// Returns the 400 body text: which parameter failed and what is valid.
pub fn parse_query(req: &Request) -> Result<Query, String> {
    query_and_limit(req).map(|(query, _)| query)
}

/// The request's query and its `limit`, if given.
fn query_and_limit(req: &Request) -> Result<(Query, Option<usize>), String> {
    Query::from_params(req.params.iter().map(|(k, v)| (k.as_str(), v.as_str())), "")
}

fn parse_usize(req: &Request, name: &str, default: usize) -> Result<usize, String> {
    match req.param(name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("invalid {name} value {text:?} (expected a number)")),
    }
}

/// Digits in the largest count, `usize::MAX`.
const COUNT_DIGITS: usize = usize::MAX.ilog10() as usize + 1;

/// What follows the count on a `/query` body's first line.
const MATCHING: &str = " matching errata\n";

/// The most bytes an entry line takes besides its title: a 26-byte id
/// (12-byte reference, `/`, 3-letter prefix, 10 digits), a 17-byte date
/// (`-2147483648-12-31`) and 7 bytes of separators.
const LINE_BYTES_BESIDES_TITLE: usize = 50;

/// The `/query` body: hit count, then up to `limit` entry lines
/// (`id  title  [date]`). CLI `query` prints the same body.
pub fn render_query_body(hits: &[&DbEntry], limit: usize) -> String {
    let shown = &hits[..limit.min(hits.len())];
    let titles: usize = shown.iter().map(|e| e.erratum.title.len()).sum();
    let mut out = String::with_capacity(
        COUNT_DIGITS + MATCHING.len() + titles + shown.len() * LINE_BYTES_BESIDES_TITLE,
    );
    // Writing to a `String` cannot fail.
    let _ = write_zero_padded(&mut out, hits.len() as u64, 0);
    out.push_str(MATCHING);
    for entry in shown {
        let _ = entry.id().write_to(&mut out);
        out.push_str("  ");
        out.push_str(&entry.erratum.title);
        out.push_str("  [");
        let _ = entry.provenance.disclosure_date.write_to(&mut out);
        out.push_str("]\n");
    }
    out
}

/// The `/count` body: the bare count.
pub fn render_count_body(count: usize) -> String {
    let mut out = String::with_capacity(COUNT_DIGITS + 1);
    // Writing to a `String` cannot fail.
    let _ = write_zero_padded(&mut out, count as u64, 0);
    out.push('\n');
    out
}

/// The `/stats` body: snapshot identity as JSON (deterministic per
/// generation).
pub fn render_stats_body(snapshot: &LoadedSnapshot) -> String {
    format!(
        "{{\"generation\":{},\"format\":\"{}\",\"entries\":{},\"unique_bugs\":{}}}\n",
        snapshot.generation,
        snapshot.format,
        snapshot.db.len(),
        snapshot.db.unique_count()
    )
}

/// Dispatches one parsed request. Pure except for `/reload` (publishes a
/// new snapshot generation), `/shutdown` (sets the flag), and `/slow`
/// (sleeps — the test fixture for deadline and shed behavior).
pub fn respond(req: &Request, ctx: &RouteCtx<'_>) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/query") => match query_and_limit(req) {
            Ok((query, limit)) => {
                let snapshot = ctx.state.snapshot();
                let hits = query.run(&snapshot.db);
                Response::text(
                    200,
                    render_query_body(&hits, limit.unwrap_or(DEFAULT_LIMIT)),
                )
            }
            Err(e) => bad_request(e),
        },
        ("GET", "/count") => match parse_query(req) {
            Ok(query) => Response::text(
                200,
                render_count_body(query.count(&ctx.state.snapshot().db)),
            ),
            Err(e) => bad_request(e),
        },
        ("GET", "/stats") => Response::json(200, render_stats_body(&ctx.state.snapshot())),
        ("GET", "/metrics") => Response::json(200, rememberr_obs::snapshot().to_json() + "\n"),
        ("POST", "/reload") => match ctx.state.reload() {
            Ok(next) => Response::text(
                200,
                format!(
                    "reloaded generation {} ({} entries)\n",
                    next.generation,
                    next.db.len()
                ),
            ),
            Err(e) => Response::text(503, format!("reload failed: {e}\n")),
        },
        ("POST", "/shutdown") => {
            ctx.shutdown.store(true, Ordering::SeqCst);
            Response::text(200, "shutting down\n").closing()
        }
        ("GET", "/slow") if ctx.slow_endpoint => match parse_usize(req, "ms", 100) {
            Ok(ms) => {
                std::thread::sleep(Duration::from_millis(ms as u64));
                Response::text(200, format!("slept {ms} ms\n"))
            }
            Err(e) => bad_request(e),
        },
        (method, "/healthz" | "/query" | "/count" | "/stats" | "/metrics") if method != "GET" => {
            method_not_allowed("GET")
        }
        (method, "/reload" | "/shutdown") if method != "POST" => method_not_allowed("POST"),
        (_, path) => Response::text(404, format!("no route for {path}\n")).closing(),
    }
}

fn bad_request(message: String) -> Response {
    Response::text(400, format!("{message}\n"))
}

fn method_not_allowed(allow: &str) -> Response {
    let mut r = Response::text(405, format!("method not allowed (use {allow})\n"));
    r.extra_headers.insert("Allow", allow.to_string());
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write;
    use std::time::Instant;

    use rememberr::Database;
    use rememberr_docgen::{CorpusSpec, SyntheticCorpus};
    use rememberr_model::{Date, Design, Erratum, ErratumId, Provenance, Vendor};

    /// The `/query` body as `writeln!` spells it: the oracle the renderer's
    /// bytes are pinned to. Ids and dates are spelled with `format!` from
    /// their fields, not through their `Display` impls, so the oracle
    /// shares no code with the writers under test.
    fn formatted_query_body(hits: &[&DbEntry], limit: usize) -> String {
        let mut out = format!("{} matching errata\n", hits.len());
        for entry in hits.iter().take(limit) {
            let (design, number) = (entry.design(), entry.id().number);
            let form = match design.vendor() {
                Vendor::Intel => format!("{}{number:03}", design.erratum_prefix()),
                Vendor::Amd => format!("{number}"),
            };
            let date = entry.provenance.disclosure_date;
            let _ = writeln!(
                out,
                "{}/{form}  {}  [{:04}-{:02}-{:02}]",
                design.reference(),
                entry.erratum.title,
                date.year(),
                date.month(),
                date.day()
            );
        }
        out
    }

    fn assert_renders_as_formatted(hits: &[&DbEntry]) {
        for limit in [0, 1, 5, 20, hits.len()] {
            let body = render_query_body(hits, limit);
            assert_eq!(body, formatted_query_body(hits, limit), "limit {limit}");
            // The buffer is sized once: no line outgrows its share of it.
            let mut lines = body.split_inclusive('\n');
            assert!(lines.next().unwrap().len() <= COUNT_DIGITS + MATCHING.len());
            for (line, entry) in lines.zip(hits) {
                let title = entry.erratum.title.len();
                assert!(line.len() <= title + LINE_BYTES_BESIDES_TITLE, "{line}");
            }
        }
    }

    fn request(target: &str) -> Request {
        let (path, raw_query) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
        Request {
            method: "GET".into(),
            path: path.into(),
            params: crate::http::parse_query_string(raw_query).unwrap(),
            close: false,
            arrived: Instant::now(),
        }
    }

    #[test]
    fn query_params_mirror_the_cli_options() {
        let req = request(
            "/query?vendor=intel&workaround=bios&fix=no-fix-planned&after=2016-01-01&unique=1",
        );
        let query = parse_query(&req).unwrap();
        let debug = format!("{query:?}");
        for field in ["Intel", "Bios", "NoFixPlanned", "2016", "unique_only: true"] {
            assert!(debug.contains(field), "{field} missing from {debug}");
        }
    }

    #[test]
    fn unknown_parameters_and_values_are_rejected_with_context() {
        let err = parse_query(&request("/query?vendour=intel")).unwrap_err();
        assert!(err.contains("vendour"), "{err}");
        assert!(err.contains("vendor"), "lists valid names: {err}");
        let err = parse_query(&request("/query?vendor=via")).unwrap_err();
        assert!(err.contains("intel"), "{err}");
        let err = parse_query(&request("/query?after=soon")).unwrap_err();
        assert!(err.contains("YYYY-MM-DD"), "{err}");
        let err = parse_query(&request("/query?unique=maybe")).unwrap_err();
        assert!(err.contains("unique"), "{err}");
        let err = parse_query(&request("/query?min-triggers=lots")).unwrap_err();
        assert!(err.contains("min-triggers"), "{err}");
    }

    #[test]
    fn render_bodies_are_stable() {
        assert_eq!(render_count_body(42), "42\n");
        for count in [0, 9, 10, 42, usize::MAX] {
            assert_eq!(render_count_body(count), format!("{count}\n"));
        }
        assert_eq!(render_query_body(&[], 20), "0 matching errata\n");
        assert_renders_as_formatted(&[]);
    }

    #[test]
    fn query_bodies_match_the_formatted_oracle_at_paper_scale() {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::paper());
        let db = Database::from_documents(&corpus.structured);
        let entries: Vec<&DbEntry> = db.entries().iter().collect();
        assert_eq!(entries.len(), 2563);
        for chunk in entries.chunks(50) {
            assert_renders_as_formatted(chunk);
        }
        assert_renders_as_formatted(&entries);
    }

    #[test]
    fn query_bodies_match_the_formatted_oracle_at_extreme_years_and_numbers() {
        // A snapshot's decoder takes any `i32` year and `u32` number, and
        // `Date::new` takes each year below.
        let mut entries = Vec::new();
        for design in Design::ALL {
            for year in [-5, 0, 5, 999, 10_000, i32::MIN, i32::MAX] {
                for number in [0, 7, 95, 999, 1000, 1361, u32::MAX] {
                    let erratum = Erratum {
                        id: ErratumId::new(design, number),
                        title: format!("Title {number}"),
                        description: "D".into(),
                        implications: String::new(),
                        workaround: "None identified.".into(),
                        status: "No fix planned.".into(),
                    };
                    let date = Date::new(year, 12, 31).unwrap();
                    entries.push(DbEntry::new(
                        erratum,
                        Provenance::from_revision_log(1, date),
                    ));
                }
            }
        }
        let hits: Vec<&DbEntry> = entries.iter().collect();
        assert_renders_as_formatted(&hits);
        assert!(render_query_body(&hits, 1).contains("[-005-12-31]"));
    }
}
