//! HTTP route dispatch: URL space → [`Registry`] calls.
//!
//! | Method & path                        | Meaning                                   |
//! |--------------------------------------|-------------------------------------------|
//! | `GET /healthz`                       | liveness                                  |
//! | `GET /metrics`                       | Prometheus page, `text/plain; version=0.0.4` |
//! | `POST /campaigns`                    | submit a `CampaignSpec` JSON              |
//! | `GET /campaigns`                     | list campaigns                            |
//! | `GET /campaigns/{id}`                | live progress                             |
//! | `GET /campaigns/{id}/result`         | final aggregate (checkpoint/v1 text)      |
//! | `DELETE /campaigns/{id}`             | graceful cancel at a shard boundary       |
//! | `GET /priors`                        | resident fleet prior (`eavs-prior/v1` text) |
//! | `POST /priors`                       | merge an `eavs-prior/v1` document in      |
//! | `POST /claim`                        | worker: claim a shard (204 when idle)     |
//! | `POST /campaigns/{id}/shards/{n}`    | worker: deliver a shard partial           |
//! | `POST /shutdown`                     | stop serving after in-flight work         |
//!
//! Every error body is structured JSON: `{"error": ..., "detail": ...}`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use eavs_fleet::checkpoint;

use crate::http::{Request, Response};
use crate::json::Value;
use crate::registry::{Registry, SubmitError, Submitted};

/// Dispatches one request.
pub fn handle(registry: &Arc<Registry>, stop: &Arc<AtomicBool>, req: Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Response::text(200, "ok\n"),
        ("GET", ["metrics"]) => Response {
            status: 200,
            content_type: eavs_obs::TEXT_FORMAT.to_owned(),
            body: registry.metrics_page().into_bytes(),
        },
        ("POST", ["campaigns"]) => submit(registry, &req.body),
        ("GET", ["campaigns"]) => Response::json(200, registry.list()),
        ("GET", ["campaigns", id]) => match registry.progress(id) {
            Some(body) => Response::json(200, body),
            None => Response::error(404, "unknown campaign", id),
        },
        ("GET", ["campaigns", id, "result"]) => match registry.result(id) {
            Ok(text) => Response::text(200, text),
            Err((status, detail)) => Response::error(status, "result unavailable", &detail),
        },
        ("DELETE", ["campaigns", id]) => match registry.cancel(id) {
            Some(body) => Response::json(200, body),
            None => Response::error(404, "unknown campaign", id),
        },
        ("GET", ["priors"]) => Response::text(200, registry.prior_text()),
        ("POST", ["priors"]) => {
            let Ok(text) = std::str::from_utf8(&req.body) else {
                return Response::error(400, "bad prior", "request body is not UTF-8");
            };
            match registry.merge_prior(text) {
                Ok((entries, frames)) => Response::json(
                    200,
                    Value::Obj(vec![
                        ("entries".into(), Value::u64(entries as u64)),
                        ("frames".into(), Value::u64(frames)),
                    ])
                    .render(),
                ),
                Err(detail) => Response::error(400, "bad prior", &detail),
            }
        }
        ("POST", ["claim"]) => match registry.claim() {
            Some(claim) => Response::json(
                200,
                format!(
                    "{{\"id\":{},\"shard\":{},\"spec\":{}}}",
                    Value::str(claim.id.as_str()).render(),
                    claim.shard,
                    claim.spec_json,
                ),
            ),
            None => Response {
                status: 204,
                content_type: "application/json".to_owned(),
                body: Vec::new(),
            },
        },
        ("POST", ["campaigns", id, "shards", shard]) => complete(registry, id, shard, &req.body),
        ("POST", ["shutdown"]) => {
            stop.store(true, Ordering::SeqCst);
            Response::json(200, "{\"stopping\":true}".to_owned())
        }
        (_, ["healthz" | "metrics" | "claim" | "shutdown" | "priors"]) | (_, ["campaigns", ..]) => {
            Response::error(
                405,
                "method not allowed",
                &format!("{} {}", req.method, req.path),
            )
        }
        _ => Response::error(404, "no such route", &req.path),
    }
}

fn submit(registry: &Registry, body: &[u8]) -> Response {
    let Ok(text) = std::str::from_utf8(body) else {
        return Response::error(400, "invalid spec", "request body is not UTF-8");
    };
    match registry.submit(text) {
        Ok(Submitted {
            id,
            resumed,
            shards_done,
            shards_total,
        }) => Response::json(
            200,
            Value::Obj(vec![
                ("id".into(), Value::str(id)),
                ("resumed".into(), Value::Bool(resumed)),
                ("shards_done".into(), Value::u64(shards_done)),
                ("shards_total".into(), Value::u64(shards_total)),
            ])
            .render(),
        ),
        Err(SubmitError::BadSpec(detail)) => Response::error(400, "invalid spec", &detail),
        Err(SubmitError::CheckpointMismatch(detail)) => {
            Response::error(409, "checkpoint mismatch", &detail)
        }
        Err(SubmitError::Io(detail)) => Response::error(500, "state dir failure", &detail),
    }
}

fn complete(registry: &Registry, id: &str, shard: &str, body: &[u8]) -> Response {
    let Ok(shard) = shard.parse::<u64>() else {
        return Response::error(400, "bad shard index", shard);
    };
    let Ok(text) = std::str::from_utf8(body) else {
        return Response::error(400, "bad shard partial", "body is not UTF-8");
    };
    let partial = match checkpoint::decode(text) {
        Ok(partial) => partial,
        Err(detail) => return Response::error(400, "bad shard partial", &detail),
    };
    match registry.complete(id, shard, partial) {
        Ok(shards_done) => Response::json(
            200,
            Value::Obj(vec![("shards_done".into(), Value::u64(shards_done))]).render(),
        ),
        Err((status, detail)) => Response::error(status, "shard rejected", &detail),
    }
}
