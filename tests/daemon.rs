//! Integration tests for the `eavsd` fleet-campaign daemon: a campaign
//! served over the HTTP control plane must produce bytes identical to a
//! direct in-process `run_campaign` — at any worker count, across a
//! daemon kill/restart, and after a cancel/resubmit — and malformed
//! input must map to structured HTTP errors, never a crash or a silent
//! wrong answer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eavs::daemon::http::client;
use eavs::daemon::worker::{run_worker, SharedRunner};
use eavs::daemon::{codec, json, registry, Daemon, DaemonOptions};
use eavs_fleet::campaign::RunOptions;
use eavs_fleet::{checkpoint, CampaignSpec};

fn pooled() -> SharedRunner {
    Arc::new(eavs_bench::fleet::pooled_runner)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("eavsd-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small but real campaign: 3 shards, 2 governor lanes.
fn small_spec(name: &str) -> CampaignSpec {
    let mut spec = CampaignSpec::smoke();
    spec.name = name.to_owned();
    spec.sessions = 12;
    spec.shard_size = 4;
    spec
}

fn daemon_opts(tag: &str) -> DaemonOptions {
    let mut opts = DaemonOptions::new(temp_dir(tag));
    opts.checkpoint_every = 1;
    opts
}

/// The reference bytes: a direct, single-process run of the same spec,
/// encoded exactly as `GET /campaigns/{id}/result` serves them.
fn reference_bytes(spec: &CampaignSpec) -> String {
    let outcome = eavs_fleet::run_campaign(
        spec,
        &RunOptions::default(),
        &eavs_bench::fleet::pooled_runner,
    )
    .unwrap();
    checkpoint::encode(&outcome.aggregate)
}

/// Polls progress until the campaign leaves `running`; returns the
/// final phase name.
fn wait_terminal(addr: &str, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = client::request_text(addr, "GET", &format!("/campaigns/{id}"), "")
            .expect("progress poll");
        assert_eq!(status, 200, "{body}");
        let v = json::parse(&body).unwrap();
        let phase = v
            .get("phase")
            .and_then(json::Value::as_str)
            .unwrap()
            .to_owned();
        if phase != "running" {
            return phase;
        }
        assert!(Instant::now() < deadline, "campaign {id} never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn http_campaign_matches_direct_run_bytes() {
    let spec = small_spec("daemon-direct");
    let expected = reference_bytes(&spec);

    let daemon = Daemon::start(daemon_opts("direct"), pooled()).unwrap();
    let addr = daemon.addr();

    let (status, body) =
        client::request_text(&addr, "POST", "/campaigns", &codec::encode_spec(&spec)).unwrap();
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    let id = v
        .get("id")
        .and_then(json::Value::as_str)
        .unwrap()
        .to_owned();
    assert_eq!(id, registry::campaign_id(&spec));
    assert_eq!(v.get("resumed").and_then(json::Value::as_bool), Some(false));

    assert_eq!(wait_terminal(&addr, &id), "complete");
    let (status, served) =
        client::request_text(&addr, "GET", &format!("/campaigns/{id}/result"), "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        served, expected,
        "HTTP result must be byte-identical to a direct run"
    );

    // The progress body reports real throughput and full lane snapshots.
    let (_, progress) =
        client::request_text(&addr, "GET", &format!("/campaigns/{id}"), "").unwrap();
    let v = json::parse(&progress).unwrap();
    assert_eq!(v.get("shards_done").and_then(json::Value::as_u64), Some(3));
    assert_eq!(
        v.get("sessions_done").and_then(json::Value::as_u64),
        Some(12)
    );
    let govs = v.get("govs").and_then(json::Value::as_arr).unwrap();
    assert_eq!(govs.len(), spec.governors.len());
    assert!(
        govs[0]
            .get("mean_cpu_j")
            .and_then(json::Value::as_f64)
            .unwrap()
            > 0.0
    );

    // /metrics serves the fleet families with the 0.0.4 content type,
    // scrape-conformant.
    let (status, content_type, page) = client::request_full(&addr, "GET", "/metrics", b"").unwrap();
    assert_eq!(status, 200);
    assert_eq!(content_type, eavs_obs::TEXT_FORMAT);
    let page = String::from_utf8(page).unwrap();
    eavs_obs::check_conformance(&page).unwrap();
    assert!(
        page.contains(&format!("campaign=\"{}\"", spec.name)),
        "{page}"
    );

    let (status, body) = client::request_text(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // The completed campaign taught the daemon its workload prior:
    // GET /priors serves exactly the prior a direct run would train.
    let direct = eavs_fleet::run_campaign(
        &spec,
        &RunOptions::default(),
        &eavs_bench::fleet::pooled_runner,
    )
    .unwrap();
    let (status, served_prior) = client::request_text(&addr, "GET", "/priors", "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        served_prior,
        eavs_fleet::prior::encode(&direct.aggregate.prior),
        "served prior must match the direct run's training bytes"
    );

    // POST /priors merges a document in and reports the new totals.
    let (status, body) = client::request_text(&addr, "POST", "/priors", &served_prior).unwrap();
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    assert_eq!(
        v.get("frames").and_then(json::Value::as_u64),
        Some(2 * direct.aggregate.prior.total_frames()),
        "{body}"
    );
    let (status, body) = client::request_text(&addr, "POST", "/priors", "garbage").unwrap();
    assert_eq!(status, 400, "{body}");
    daemon.shutdown();
}

#[test]
fn two_http_workers_and_a_daemon_restart_stay_byte_identical() {
    let spec = small_spec("daemon-scaleout");
    let expected = reference_bytes(&spec);
    let state = temp_dir("scaleout");

    // Phase 1: coordinator with NO local workers; two remote workers
    // drive every shard over HTTP. Kill the coordinator mid-campaign.
    let first_id;
    {
        let mut opts = DaemonOptions::new(state.clone());
        opts.checkpoint_every = 1;
        opts.workers = 0;
        let daemon = Daemon::start(opts, pooled()).unwrap();
        let addr = daemon.addr();

        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || run_worker(&addr, &pooled(), &stop))
            })
            .collect();

        let (status, body) =
            client::request_text(&addr, "POST", "/campaigns", &codec::encode_spec(&spec)).unwrap();
        assert_eq!(status, 200, "{body}");
        first_id = json::parse(&body)
            .unwrap()
            .get("id")
            .and_then(json::Value::as_str)
            .unwrap()
            .to_owned();

        // Wait for at least one checkpointed shard, then tear the
        // coordinator down mid-campaign (workers and all).
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let (_, body) =
                client::request_text(&addr, "GET", &format!("/campaigns/{first_id}"), "").unwrap();
            let v = json::parse(&body).unwrap();
            let done = v.get("shards_done").and_then(json::Value::as_u64).unwrap();
            let phase = v
                .get("phase")
                .and_then(json::Value::as_str)
                .unwrap()
                .to_owned();
            if done >= 1 || phase != "running" {
                break;
            }
            assert!(Instant::now() < deadline, "no shard ever completed");
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::SeqCst);
        for w in workers {
            w.join().unwrap();
        }
        daemon.shutdown();
    }

    // Phase 2: a fresh daemon on the same state dir recovers the
    // campaign from its checkpoint; resubmitting the same spec is
    // idempotent and rides the resume. Local workers finish it.
    {
        let mut opts = DaemonOptions::new(state.clone());
        opts.checkpoint_every = 1;
        opts.workers = 2;
        let daemon = Daemon::start(opts, pooled()).unwrap();
        let addr = daemon.addr();

        let (status, body) =
            client::request_text(&addr, "POST", "/campaigns", &codec::encode_spec(&spec)).unwrap();
        assert_eq!(status, 200, "{body}");
        let v = json::parse(&body).unwrap();
        assert_eq!(
            v.get("id").and_then(json::Value::as_str),
            Some(first_id.as_str()),
            "same spec, same id"
        );
        assert_eq!(v.get("resumed").and_then(json::Value::as_bool), Some(true));

        assert_eq!(wait_terminal(&addr, &first_id), "complete");
        let (status, served) =
            client::request_text(&addr, "GET", &format!("/campaigns/{first_id}/result"), "")
                .unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            served, expected,
            "2 workers + kill/restart must not change a single byte"
        );
        daemon.shutdown();
    }
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn cancel_then_resubmit_resumes_to_identical_bytes() {
    let spec = small_spec("daemon-cancel");
    let expected = reference_bytes(&spec);

    // No local workers: the campaign sits claimable, so the cancel is
    // deterministic — nothing has run yet when it lands.
    let state = temp_dir("cancel");
    let mut opts = DaemonOptions::new(state.clone());
    opts.checkpoint_every = 1;
    opts.workers = 0;
    let daemon = Daemon::start(opts, pooled()).unwrap();
    let addr = daemon.addr();

    let (status, body) =
        client::request_text(&addr, "POST", "/campaigns", &codec::encode_spec(&spec)).unwrap();
    assert_eq!(status, 200, "{body}");
    let id = json::parse(&body)
        .unwrap()
        .get("id")
        .and_then(json::Value::as_str)
        .unwrap()
        .to_owned();

    let (status, body) =
        client::request_text(&addr, "DELETE", &format!("/campaigns/{id}"), "").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"phase\":\"cancelled\""), "{body}");

    // A cancelled campaign refuses its result with a structured 409…
    let (status, body) =
        client::request_text(&addr, "GET", &format!("/campaigns/{id}/result"), "").unwrap();
    assert_eq!(status, 409);
    assert!(body.contains("\"error\""), "{body}");
    daemon.shutdown();

    // …and a fresh daemon on the same state dir picks the campaign up
    // from its cancel checkpoint and runs it to the reference bytes.
    let mut opts = DaemonOptions::new(state.clone());
    opts.checkpoint_every = 1;
    let daemon = Daemon::start(opts, pooled()).unwrap();
    let addr = daemon.addr();
    assert_eq!(wait_terminal(&addr, &id), "complete");
    let (status, served) =
        client::request_text(&addr, "GET", &format!("/campaigns/{id}/result"), "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(served, expected);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn malformed_input_maps_to_structured_errors() {
    let daemon = Daemon::start(daemon_opts("errors"), pooled()).unwrap();
    let addr = daemon.addr();

    // Invalid JSON, wrong shape, unknown field, invalid spec → 400 with
    // a structured {"error", "detail"} body.
    for bad in [
        "{not json",
        "[]",
        "{\"name\":\"x\"}",
        &codec::encode_spec(&small_spec("bad")).replace("\"seed\"", "\"turbo\""),
    ] {
        let (status, body) = client::request_text(&addr, "POST", "/campaigns", bad).unwrap();
        assert_eq!(status, 400, "{bad:?} → {body}");
        let v = json::parse(&body).expect("error body is JSON");
        assert_eq!(
            v.get("error").and_then(json::Value::as_str),
            Some("invalid spec"),
            "{body}"
        );
        assert!(v.get("detail").is_some(), "{body}");
    }

    // Unknown ids and routes.
    let (status, body) = client::request_text(&addr, "GET", "/campaigns/deadbeef", "").unwrap();
    assert_eq!(status, 404, "{body}");
    let (status, _) = client::request_text(&addr, "GET", "/nope", "").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client::request_text(&addr, "DELETE", "/metrics", "").unwrap();
    assert_eq!(status, 405);

    // A shard partial for an unknown campaign, and garbage partials.
    let (status, body) =
        client::request_text(&addr, "POST", "/campaigns/deadbeef/shards/0", "junk").unwrap();
    assert_eq!(status, 400, "{body}");

    // Oversized bodies are refused from the Content-Length header
    // alone — the daemon never buffers the payload.
    let huge = "x".repeat(2 * 1024 * 1024);
    let (status, body) = client::request_text(&addr, "POST", "/campaigns", &huge).unwrap();
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("\"error\""), "{body}");
    daemon.shutdown();
}

#[test]
fn a_tampered_checkpoint_is_refused_on_restart() {
    let spec = small_spec("daemon-tamper");
    let state = temp_dir("tamper");

    // Run the campaign to completion so the state dir holds a spec and
    // checkpoint pair.
    let daemon = Daemon::start(
        {
            let mut opts = DaemonOptions::new(state.clone());
            opts.checkpoint_every = 1;
            opts
        },
        pooled(),
    )
    .unwrap();
    let addr = daemon.addr();
    let (status, body) =
        client::request_text(&addr, "POST", "/campaigns", &codec::encode_spec(&spec)).unwrap();
    assert_eq!(status, 200, "{body}");
    let id = json::parse(&body)
        .unwrap()
        .get("id")
        .and_then(json::Value::as_str)
        .unwrap()
        .to_owned();
    assert_eq!(wait_terminal(&addr, &id), "complete");
    daemon.shutdown();

    // Swap the checkpoint for one belonging to a different campaign.
    let mut other = spec.clone();
    other.seed ^= 1;
    let foreign = eavs_fleet::FleetAggregate::new(&other);
    checkpoint::save(&state.join(format!("{id}.ckpt")), &foreign).unwrap();

    // The restarted daemon must refuse to open rather than resume into
    // a silently wrong aggregate.
    let err = Daemon::start(
        {
            let mut opts = DaemonOptions::new(state.clone());
            opts.checkpoint_every = 1;
            opts
        },
        pooled(),
    )
    .err()
    .expect("tampered checkpoint must refuse recovery");
    assert!(err.contains("CheckpointMismatch"), "{err}");
    let _ = std::fs::remove_dir_all(&state);
}
