//! Route dispatch: URL parameters to [`Query`] values to response bodies.
//!
//! Parameter names mirror the CLI's `query` options one-for-one
//! (`vendor`, `design`, `trigger`…), and the parsing goes through the
//! same shared code (`rememberr_model` facet parsing, the taxonomy
//! `FromStr` impls), so a URL and a CLI invocation describing the same
//! query cannot drift apart. Rendering is a pure function of the request
//! and the snapshot — no timestamps, no worker identity — which is what
//! makes `identical request → byte-identical body` hold at any worker
//! count and lets the tests compare every served body with the same
//! renderer over the in-process scan oracle (`Query::run`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use rememberr::{DbEntry, Query};
use rememberr_model::{
    parse_fix, parse_vendor, parse_workaround, Context, Date, Design, Effect, MsrName, Trigger,
    TriggerClass,
};

use crate::http::{Request, Response};
use crate::state::{LoadedSnapshot, ServeState};

/// Parameters every query endpoint accepts; anything else is a 400.
const QUERY_PARAMS: &[&str] = &[
    "vendor",
    "design",
    "trigger",
    "trigger-class",
    "context",
    "effect",
    "msr",
    "workaround",
    "fix",
    "after",
    "before",
    "min-triggers",
    "unique",
    "annotated",
    "limit",
];

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

/// Builds a [`Query`] from URL parameters, rejecting unknown names.
///
/// # Errors
///
/// Returns the 400 body text: which parameter failed and what is valid.
pub fn parse_query(req: &Request) -> Result<Query, String> {
    for (name, _) in &req.params {
        if !QUERY_PARAMS.contains(&name.as_str()) {
            return Err(format!(
                "unknown parameter {name:?} (valid: {})",
                QUERY_PARAMS.join(", ")
            ));
        }
    }
    let mut query = Query::new();
    if let Some(text) = req.param("vendor") {
        query = query.vendor(parse_vendor(text)?);
    }
    if let Some(text) = req.param("design") {
        let design: Design = text
            .parse()
            .map_err(|_| format!("unknown design {text:?} (label like \"Core 6\" or reference)"))?;
        query = query.design(design);
    }
    for code in req.params_all("trigger") {
        let trigger: Trigger = code
            .parse()
            .map_err(|_| format!("unknown trigger code {code:?}"))?;
        query = query.trigger(trigger);
    }
    if let Some(code) = req.param("trigger-class") {
        let class: TriggerClass = code
            .parse()
            .map_err(|_| format!("unknown trigger class {code:?}"))?;
        query = query.trigger_class(class);
    }
    for code in req.params_all("context") {
        let context: Context = code
            .parse()
            .map_err(|_| format!("unknown context code {code:?}"))?;
        query = query.context(context);
    }
    for code in req.params_all("effect") {
        let effect: Effect = code
            .parse()
            .map_err(|_| format!("unknown effect code {code:?}"))?;
        query = query.effect(effect);
    }
    if let Some(name) = req.param("msr") {
        let msr: MsrName = name
            .parse()
            .map_err(|_| format!("unknown MSR name {name:?}"))?;
        query = query.msr(msr);
    }
    if let Some(text) = req.param("workaround") {
        query = query.workaround(parse_workaround(text)?);
    }
    if let Some(text) = req.param("fix") {
        query = query.fix(parse_fix(text)?);
    }
    if let Some(text) = req.param("after") {
        query = query.disclosed_after(parse_date("after", text)?);
    }
    if let Some(text) = req.param("before") {
        query = query.disclosed_before(parse_date("before", text)?);
    }
    let min = parse_usize(req, "min-triggers", 0)?;
    if min > 0 {
        query = query.min_triggers(min);
    }
    if bool_param(req, "unique")? {
        query = query.unique_only();
    }
    if bool_param(req, "annotated")? {
        query = query.annotated_only();
    }
    Ok(query)
}

fn parse_date(name: &str, text: &str) -> Result<Date, String> {
    text.parse()
        .map_err(|_| format!("invalid {name} date {text:?} (use YYYY-MM-DD)"))
}

fn parse_usize(req: &Request, name: &str, default: usize) -> Result<usize, String> {
    match req.param(name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("invalid {name} value {text:?} (expected a number)")),
    }
}

fn bool_param(req: &Request, name: &str) -> Result<bool, String> {
    match req.param(name) {
        None => Ok(false),
        Some("" | "1" | "true") => Ok(true),
        Some("0" | "false") => Ok(false),
        Some(other) => Err(format!(
            "invalid {name} value {other:?} (use 1/true or 0/false)"
        )),
    }
}

/// The `/query` body: hit count, then up to `limit` entry lines.
///
/// Line format matches the CLI `query` command so the two surfaces stay
/// diffable.
pub fn render_query_body(hits: &[&DbEntry], limit: usize) -> String {
    let mut out = format!("{} matching errata\n", hits.len());
    for entry in hits.iter().take(limit) {
        out.push_str(&format!(
            "{}  {}  [{}]\n",
            entry.id(),
            entry.erratum.title,
            entry.provenance.disclosure_date
        ));
    }
    out
}

/// The `/count` body: the bare count.
pub fn render_count_body(count: usize) -> String {
    format!("{count}\n")
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
        ("GET", "/query") => match (parse_query(req), limit_param(req)) {
            (Ok(query), Ok(limit)) => {
                let snapshot = ctx.state.snapshot();
                let db = &snapshot.db;
                let hits = query.run_indexed(db.query_index(), db);
                Response::text(200, render_query_body(&hits, limit))
            }
            (Err(e), _) | (_, Err(e)) => bad_request(e),
        },
        ("GET", "/count") => match parse_query(req) {
            Ok(query) => {
                let snapshot = ctx.state.snapshot();
                let db = &snapshot.db;
                Response::text(
                    200,
                    render_count_body(query.count_indexed(db.query_index(), db)),
                )
            }
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

fn limit_param(req: &Request) -> Result<usize, String> {
    parse_usize(req, "limit", DEFAULT_LIMIT)
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
    use std::time::Instant;

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
        assert_eq!(render_query_body(&[], 20), "0 matching errata\n");
    }
}
