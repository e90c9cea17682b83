//! Route table: method + path → handler dispatch token.
//!
//! Every route lives under `/v1/...`. The one exception is the liveness
//! probe, which answers on both `GET /healthz` and `GET /v1/healthz`:
//! it is infrastructure, not API surface.

use crate::http::Method;
use be2d_db::RecordId;

/// A resolved route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /v1/images` — index a scene or symbolic image.
    InsertImage,
    /// `DELETE /v1/images/{id}` — drop a stored image.
    DeleteImage(RecordId),
    /// `POST /v1/images/{id}/objects` — §3.2 incremental object insert.
    AddObject(RecordId),
    /// `DELETE /v1/images/{id}/objects` — §3.2 incremental object
    /// removal.
    RemoveObject(RecordId),
    /// `POST /v1/search` — ranked similarity search (scene or text
    /// query).
    Search,
    /// `POST /v1/search/sketch` — spatial-pattern sketch search.
    SearchSketch,
    /// `GET /v1/stats` — nested statistics sections.
    Stats,
    /// `GET /healthz` (also `GET /v1/healthz`) — liveness probe.
    Health,
    /// `GET /v1/health` — the full health report: per-subsystem
    /// verdicts plus the worst-verdict rollup.
    HealthReport,
    /// `GET /v1/debug/events` — the structured event journal, polled
    /// incrementally with `?since={seq}`.
    DebugEvents,
    /// `GET /v1/metrics` — Prometheus text exposition of every
    /// registered metric family.
    Metrics,
    /// `GET /v1/debug/slow_queries` — the worst traced queries retained
    /// in the bounded slow-query ring.
    SlowQueries,
    /// `POST /v1/admin/checkpoint` — WAL checkpoint: fresh anchor
    /// snapshot plus on-disk log truncation.
    Checkpoint,
    /// `POST /v1/snapshot` — persist a consistent snapshot to disk.
    Snapshot,
    /// `POST /v1/restore` — replace the database from a snapshot file.
    Restore,
    /// `POST /v1/admin/replicas/fail` — take a replica out of rotation
    /// (fault injection).
    ReplicaFail,
    /// `POST /v1/admin/replicas/heal` — rebuild a failed replica from a
    /// healthy peer and rejoin it.
    ReplicaHeal,
    /// `POST /v1/admin/reshard` — start an online reshard to a new
    /// shard count (progress in `GET /v1/stats`).
    Reshard,
    /// `POST /v1/admin/shutdown` — begin graceful shutdown.
    Shutdown,
}

/// A resolved request target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolved {
    /// The matched route.
    pub route: Route,
}

/// Why no route matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// Unknown path (404).
    NotFound,
    /// Known path, wrong method (405).
    MethodNotAllowed,
    /// An `{id}` segment is not a number (400).
    BadId(String),
}

impl RouteError {
    /// The HTTP status this error maps to.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            RouteError::NotFound => 404,
            RouteError::MethodNotAllowed => 405,
            RouteError::BadId(_) => 400,
        }
    }

    /// Human-readable reason for the error envelope.
    #[must_use]
    pub fn message(&self) -> String {
        match self {
            RouteError::NotFound => "no such route".into(),
            RouteError::MethodNotAllowed => "method not allowed for this route".into(),
            RouteError::BadId(raw) => format!("invalid record id {raw:?}"),
        }
    }
}

/// One pattern segment in the route table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seg {
    /// Matches this literal segment.
    Lit(&'static str),
    /// Matches a numeric `{id}` segment.
    Id,
}

/// One row of the route table.
struct Rule {
    method: Method,
    pattern: &'static [Seg],
    make: fn(Option<RecordId>) -> Route,
}

use Seg::{Id, Lit};

/// The whole API surface, one row per (method, path) pair, without the
/// `/v1` prefix (versioning lives in [`resolve`]).
const RULES: &[Rule] = &[
    Rule {
        method: Method::Post,
        pattern: &[Lit("images")],
        make: |_| Route::InsertImage,
    },
    Rule {
        method: Method::Delete,
        pattern: &[Lit("images"), Id],
        make: |id| Route::DeleteImage(id.expect("pattern has an id")),
    },
    Rule {
        method: Method::Post,
        pattern: &[Lit("images"), Id, Lit("objects")],
        make: |id| Route::AddObject(id.expect("pattern has an id")),
    },
    Rule {
        method: Method::Delete,
        pattern: &[Lit("images"), Id, Lit("objects")],
        make: |id| Route::RemoveObject(id.expect("pattern has an id")),
    },
    Rule {
        method: Method::Post,
        pattern: &[Lit("search")],
        make: |_| Route::Search,
    },
    Rule {
        method: Method::Post,
        pattern: &[Lit("search"), Lit("sketch")],
        make: |_| Route::SearchSketch,
    },
    Rule {
        method: Method::Get,
        pattern: &[Lit("stats")],
        make: |_| Route::Stats,
    },
    Rule {
        method: Method::Get,
        pattern: &[Lit("healthz")],
        make: |_| Route::Health,
    },
    Rule {
        method: Method::Get,
        pattern: &[Lit("health")],
        make: |_| Route::HealthReport,
    },
    Rule {
        method: Method::Get,
        pattern: &[Lit("metrics")],
        make: |_| Route::Metrics,
    },
    Rule {
        method: Method::Get,
        pattern: &[Lit("debug"), Lit("events")],
        make: |_| Route::DebugEvents,
    },
    Rule {
        method: Method::Get,
        pattern: &[Lit("debug"), Lit("slow_queries")],
        make: |_| Route::SlowQueries,
    },
    Rule {
        method: Method::Post,
        pattern: &[Lit("admin"), Lit("checkpoint")],
        make: |_| Route::Checkpoint,
    },
    Rule {
        method: Method::Post,
        pattern: &[Lit("snapshot")],
        make: |_| Route::Snapshot,
    },
    Rule {
        method: Method::Post,
        pattern: &[Lit("restore")],
        make: |_| Route::Restore,
    },
    Rule {
        method: Method::Post,
        pattern: &[Lit("admin"), Lit("replicas"), Lit("fail")],
        make: |_| Route::ReplicaFail,
    },
    Rule {
        method: Method::Post,
        pattern: &[Lit("admin"), Lit("replicas"), Lit("heal")],
        make: |_| Route::ReplicaHeal,
    },
    Rule {
        method: Method::Post,
        pattern: &[Lit("admin"), Lit("reshard")],
        make: |_| Route::Reshard,
    },
    Rule {
        method: Method::Post,
        pattern: &[Lit("admin"), Lit("shutdown")],
        make: |_| Route::Shutdown,
    },
];

/// Whether `pattern` matches `segments`, capturing the raw `{id}`.
fn matches<'p>(pattern: &[Seg], segments: &[&'p str]) -> Option<Option<&'p str>> {
    if pattern.len() != segments.len() {
        return None;
    }
    let mut raw_id = None;
    for (seg, &actual) in pattern.iter().zip(segments) {
        match seg {
            Lit(lit) => {
                if *lit != actual {
                    return None;
                }
            }
            Id => raw_id = Some(actual),
        }
    }
    Some(raw_id)
}

/// Resolves a request's method + path against the route table.
///
/// # Errors
///
/// Returns [`RouteError`] when nothing matches.
pub fn resolve(method: Method, path: &str) -> Result<Resolved, RouteError> {
    let mut segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    if segments.first() == Some(&"v1") {
        segments.remove(0);
    } else if segments != ["healthz"] {
        return Err(RouteError::NotFound);
    }

    let mut path_known = false;
    for rule in RULES {
        let Some(raw_id) = matches(rule.pattern, &segments) else {
            continue;
        };
        path_known = true;
        if rule.method != method {
            continue;
        }
        let id = match raw_id {
            Some(raw) => Some(
                raw.parse::<usize>()
                    .map(RecordId)
                    .map_err(|_| RouteError::BadId(raw.to_owned()))?,
            ),
            None => None,
        };
        return Ok(Resolved {
            route: (rule.make)(id),
        });
    }
    Err(if path_known {
        RouteError::MethodNotAllowed
    } else {
        RouteError::NotFound
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(method: Method, path: &str) -> Result<Route, RouteError> {
        resolve(method, path).map(|r| r.route)
    }

    #[test]
    fn routes_resolve() {
        assert_eq!(route(Method::Post, "/v1/images"), Ok(Route::InsertImage));
        assert_eq!(
            route(Method::Delete, "/v1/images/7"),
            Ok(Route::DeleteImage(RecordId(7)))
        );
        assert_eq!(
            route(Method::Post, "/v1/images/3/objects"),
            Ok(Route::AddObject(RecordId(3)))
        );
        assert_eq!(
            route(Method::Delete, "/v1/images/3/objects"),
            Ok(Route::RemoveObject(RecordId(3)))
        );
        assert_eq!(route(Method::Post, "/v1/search"), Ok(Route::Search));
        assert_eq!(
            route(Method::Post, "/v1/search/sketch"),
            Ok(Route::SearchSketch)
        );
        assert_eq!(route(Method::Get, "/v1/stats"), Ok(Route::Stats));
        assert_eq!(route(Method::Get, "/v1/healthz"), Ok(Route::Health));
        assert_eq!(route(Method::Post, "/v1/snapshot"), Ok(Route::Snapshot));
        assert_eq!(route(Method::Post, "/v1/restore"), Ok(Route::Restore));
        assert_eq!(
            route(Method::Post, "/v1/admin/shutdown"),
            Ok(Route::Shutdown)
        );
        assert_eq!(
            route(Method::Post, "/v1/admin/replicas/fail"),
            Ok(Route::ReplicaFail)
        );
        assert_eq!(
            route(Method::Post, "/v1/admin/replicas/heal"),
            Ok(Route::ReplicaHeal)
        );
        assert_eq!(route(Method::Post, "/v1/admin/reshard"), Ok(Route::Reshard));
        assert_eq!(route(Method::Get, "/v1/metrics"), Ok(Route::Metrics));
        assert_eq!(route(Method::Get, "/v1/health"), Ok(Route::HealthReport));
        assert_eq!(
            route(Method::Get, "/v1/debug/events"),
            Ok(Route::DebugEvents)
        );
        assert_eq!(
            route(Method::Get, "/v1/debug/slow_queries"),
            Ok(Route::SlowQueries)
        );
        assert_eq!(
            route(Method::Post, "/v1/admin/checkpoint"),
            Ok(Route::Checkpoint)
        );
        assert_eq!(
            route(Method::Get, "/v1/admin/replicas/fail").unwrap_err(),
            RouteError::MethodNotAllowed
        );
        assert_eq!(
            route(Method::Get, "/v1/admin/reshard").unwrap_err(),
            RouteError::MethodNotAllowed
        );
        // trailing slashes are tolerated
        assert_eq!(route(Method::Get, "/v1/healthz/"), Ok(Route::Health));
    }

    #[test]
    fn only_healthz_answers_unversioned() {
        assert_eq!(route(Method::Get, "/healthz"), Ok(Route::Health));
        assert_eq!(route(Method::Get, "/healthz/"), Ok(Route::Health));
        for (method, unversioned) in [
            (Method::Post, "/images"),
            (Method::Delete, "/images/7"),
            (Method::Post, "/images/3/objects"),
            (Method::Delete, "/images/3/objects"),
            (Method::Post, "/search"),
            (Method::Post, "/search/sketch"),
            (Method::Get, "/stats"),
            (Method::Get, "/health"),
            (Method::Get, "/metrics"),
            (Method::Get, "/debug/slow_queries"),
            (Method::Get, "/debug/events"),
            (Method::Post, "/snapshot"),
            (Method::Post, "/restore"),
            (Method::Post, "/admin/replicas/fail"),
            (Method::Post, "/admin/replicas/heal"),
            (Method::Post, "/admin/reshard"),
            (Method::Post, "/admin/checkpoint"),
            (Method::Post, "/admin/shutdown"),
        ] {
            assert_eq!(
                route(method, unversioned),
                Err(RouteError::NotFound),
                "{unversioned}"
            );
            assert!(
                resolve(method, &format!("/v1{unversioned}")).is_ok(),
                "/v1{unversioned}"
            );
        }
    }

    #[test]
    fn error_mapping() {
        assert_eq!(
            route(Method::Get, "/nope").unwrap_err(),
            RouteError::NotFound
        );
        assert_eq!(
            route(Method::Get, "/v1/nope").unwrap_err(),
            RouteError::NotFound
        );
        assert_eq!(
            route(Method::Get, "/v1/images").unwrap_err(),
            RouteError::MethodNotAllowed
        );
        assert_eq!(
            route(Method::Post, "/healthz").unwrap_err(),
            RouteError::MethodNotAllowed
        );
        assert_eq!(
            route(Method::Delete, "/v1/search").unwrap_err(),
            RouteError::MethodNotAllowed
        );
        let bad = route(Method::Delete, "/v1/images/xyz").unwrap_err();
        assert_eq!(bad.status(), 400);
        assert!(bad.message().contains("xyz"));
        assert_eq!(RouteError::NotFound.status(), 404);
        assert_eq!(RouteError::MethodNotAllowed.status(), 405);
    }
}
