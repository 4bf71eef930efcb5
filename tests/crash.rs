//! Crash tests: write → crash → recover → read across the named crash-point
//! matrix (see DESIGN.md, "Crash model and recovery protocol").
//!
//! Every scenario derives its crash schedule from one `u64` seed. CI runs the
//! suite under several fixed seeds plus one random seed; any failure prints
//! the seed, and `CRASH_SEED=<n> cargo test --test crash` replays the exact
//! same schedule byte-for-byte. Injection logs are written under
//! `target/crash-logs/` so CI can attach them to a failing run.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use pravega::client::{StringSerializer, WriterConfig};
use pravega::common::crashpoints::{self, ALL_CRASH_POINTS};
use pravega::common::hashing::container_for_segment;
use pravega::common::id::ScopedStream;
use pravega::common::policy::{ScalingPolicy, StreamConfiguration};
use pravega::common::retry::RetryClass;
use pravega::core::{ClusterConfig, PravegaCluster};
use pravega::faults::{CrashSpec, FaultPlan, FaultRecord, FaultSpec};
use pravega::wal::error::WalError;

/// Number of routing keys each scenario spreads its events over.
const KEYS: usize = 5;

/// The seed every schedule in this file draws from. `CRASH_SEED=<n>`
/// overrides the built-in default so a CI failure can be replayed locally.
fn crash_seed() -> u64 {
    let seed = std::env::var("CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC4A5_11FA);
    eprintln!("crash seed: {seed} (replay with CRASH_SEED={seed})");
    seed
}

fn crash_cluster(crash_faults: Option<Arc<FaultPlan>>) -> PravegaCluster {
    let mut config = ClusterConfig::default();
    config.container.flush_interval = Duration::from_millis(5);
    // Small flush batches and chunks so tiering crosses chunk boundaries —
    // each flush pass and chunk roll walks past a named crash point.
    config.container.max_flush_bytes = 1024;
    config.max_chunk_bytes = 2048;
    config.crash_faults = crash_faults;
    PravegaCluster::start(config).unwrap()
}

fn stream(name: &str) -> ScopedStream {
    ScopedStream::new("crash", name).unwrap()
}

/// Event payloads carry padding so a few dozen events cross flush-batch and
/// chunk boundaries, walking the tiering path past its crash points.
fn event(i: usize) -> String {
    format!("e-{i:04}-{}", "x".repeat(120))
}

/// The sequence number embedded in an [`event`] payload.
fn event_index(e: &str) -> usize {
    e[2..6].parse().unwrap()
}

fn key(i: usize) -> String {
    format!("k{}", i % KEYS)
}

/// Reads at least `at_least` events, then keeps draining briefly so stray
/// duplicates (the bug these tests exist to catch) cannot hide past the
/// required count.
fn drain_events(
    cluster: &PravegaCluster,
    s: &ScopedStream,
    group_name: &str,
    at_least: usize,
) -> Vec<String> {
    let group = cluster
        .create_reader_group("crash", group_name, vec![s.clone()])
        .unwrap();
    let mut reader = cluster.create_reader(&group, "r1", StringSerializer);
    let mut got = Vec::new();
    let mut transient_strikes = 0;
    while got.len() < at_least {
        match reader.read_next(Duration::from_secs(10)) {
            Ok(Some(e)) => got.push(e.event),
            Ok(None) => panic!("timed out after {} of {at_least} events", got.len()),
            Err(e) if e.is_transient() && transient_strikes < 50 => {
                transient_strikes += 1;
            }
            Err(e) => panic!("read failed after {} events: {e}", got.len()),
        }
    }
    while let Ok(Some(e)) = reader.read_next(Duration::from_millis(300)) {
        got.push(e.event);
    }
    got
}

/// Exactly-once, per-key order: every event in `required` appears once, no
/// event appears twice, nothing outside `written` appears at all, and within
/// each routing key the embedded sequence numbers are strictly increasing.
fn assert_exactly_once(got: &[String], required: &HashSet<String>, written: &HashSet<String>) {
    let mut seen = HashSet::new();
    for e in got {
        assert!(written.contains(e), "read unknown event {e:?}");
        assert!(seen.insert(e.clone()), "duplicate event {e:?}");
    }
    for e in required {
        assert!(seen.contains(e), "acked event {e:?} lost");
    }
    let mut last_per_key: Vec<Option<usize>> = vec![None; KEYS];
    for e in got {
        let i = event_index(e);
        let k = i % KEYS;
        if let Some(prev) = last_per_key[k] {
            assert!(
                prev < i,
                "per-key order violated: {prev} before {i} on k{k}"
            );
        }
        last_per_key[k] = Some(i);
    }
}

/// Writes the plan's injection log under `target/crash-logs/` so a CI
/// failure can attach the exact schedule that produced it.
fn persist_log(name: &str, seed: u64, log: &[FaultRecord]) {
    let dir = std::path::Path::new("target/crash-logs");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut text = String::new();
    for r in log {
        text.push_str(&format!(
            "op={} operation={} decision={:?}\n",
            r.op_index, r.operation, r.decision
        ));
    }
    let _ = std::fs::write(dir.join(format!("{name}-{seed}.log")), text);
}

/// The tentpole matrix: for each named crash point on the write/tier path,
/// write acked events, fire the crash mid-pipeline, crash the whole cluster,
/// restart it from durable state only, and prove every acked event is read
/// back exactly once in per-key order.
///
/// `SEGMENTSTORE_CONTAINER_MID_SEAL` needs a seal in flight and gets its own
/// dedicated scenario below.
#[test]
fn every_crash_point_preserves_acked_events_exactly_once() {
    let seed = crash_seed();
    let matrix: Vec<&'static str> = ALL_CRASH_POINTS
        .iter()
        .copied()
        .filter(|p| *p != crashpoints::SEGMENTSTORE_CONTAINER_MID_SEAL)
        .collect();
    let mut combined_log = Vec::new();
    for (round, point) in matrix.iter().enumerate() {
        eprintln!("crash matrix: {point}");
        let plan = Arc::new(FaultPlan::manual());
        let cluster = crash_cluster(Some(plan.clone()));
        let s = stream(&format!("matrix-{round}"));
        cluster.create_scope("crash").unwrap();
        cluster
            .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(2)))
            .unwrap();

        // Phase 1: a fully acknowledged prefix.
        let mut writer =
            cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
        for i in 0..60 {
            writer.write_event(&key(i), &event(i));
        }
        writer.flush().unwrap();

        // Phase 2: arm the crash point and keep writing. Depending on the
        // point the crash lands on an append, a journal write, a flush pass
        // or a chunk roll; per-event promises tell us which of these events
        // were acknowledged before the machinery died.
        plan.crash_at_next(point);
        let promises: Vec<_> = (60..100)
            .map(|i| writer.write_event(&key(i), &event(i)))
            .collect();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while plan.injected_crashes() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "crash point {point} never fired"
            );
            // Nudge the tiering path: flush passes walk the storage-writer,
            // checkpoint and chunk-roll crash points.
            for c in cluster.containers() {
                let _ = c.flush_once();
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Let in-flight acks settle before sampling the promises.
        std::thread::sleep(Duration::from_millis(100));
        let mut required: HashSet<String> = (0..60).map(event).collect();
        for (i, pr) in (60..100).zip(promises) {
            if matches!(pr.try_take(), Some(Ok(Ok(())))) {
                required.insert(event(i));
            }
        }
        drop(writer);

        // Phase 3: the whole cluster dies abruptly and is rebuilt from the
        // durable substrate (WAL bookies + LTS + coordination store) only.
        plan.set_enabled(false);
        let cluster = cluster.crash_and_restart().unwrap();

        // Phase 4: the restarted cluster accepts writes...
        let mut writer =
            cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
        for i in 100..130 {
            writer.write_event(&key(i), &event(i));
        }
        writer.flush().unwrap();
        for i in 100..130 {
            required.insert(event(i));
        }

        // ...and serves every acked event exactly once, in per-key order.
        let written: HashSet<String> = (0..130).map(event).collect();
        let got = drain_events(&cluster, &s, &format!("g-{round}"), required.len());
        assert_exactly_once(&got, &required, &written);
        assert_eq!(plan.injected_crashes(), 1, "{point} fired exactly once");
        combined_log.extend(plan.log());
        cluster.shutdown();
    }
    persist_log("crash-matrix", seed, &combined_log);
}

/// A crash point that kills a container's durable-log pipeline must not
/// strand promises: operations queued behind the torn frame (and any
/// enqueued afterwards) fail promptly instead of blocking their callers
/// forever. Regression test — a mid-frame crash used to leave queued ops'
/// completers unreachable in the dead pipeline's channel, wedging flush
/// passes, checkpoints and every connection handler of that container.
#[test]
fn crashed_pipeline_strands_no_promises() {
    let plan = Arc::new(FaultPlan::manual());
    let cluster = crash_cluster(Some(plan.clone()));
    let s = stream("stranded");
    cluster.create_scope("crash").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(2)))
        .unwrap();
    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    for i in 0..40 {
        writer.write_event(&key(i), &event(i));
    }
    writer.flush().unwrap();

    plan.crash_at_next(crashpoints::SEGMENTSTORE_DURABLELOG_MID_FRAME);
    let promises: Vec<_> = (40..80)
        .map(|i| writer.write_event(&key(i), &event(i)))
        .collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while plan.injected_crashes() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "mid-frame crash point never fired"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // Everything below used to hang. Run it under a watchdog so a regression
    // fails the test instead of wedging the whole suite.
    let teardown = std::thread::spawn(move || {
        // Flush passes and checkpoints on the crashed container must return
        // (with an error), not block on a promise the dead pipeline holds.
        for c in cluster.containers() {
            let _ = c.flush_once();
            let _ = c.checkpoint();
        }
        // Every append promise resolves: acked on live segments, failed on
        // the crashed container — never stranded.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        for pr in promises {
            while pr.try_take().is_none() {
                assert!(
                    std::time::Instant::now() < deadline,
                    "append promise stranded by the crashed pipeline"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        drop(writer);
        cluster.shutdown();
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while !teardown.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "post-crash teardown hung on a stranded promise"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    teardown.join().unwrap();
    assert_eq!(plan.injected_crashes(), 1);
}

/// An abruptly crashed store leaves zombie WAL handles behind; once the
/// survivors have recovered (and thereby fenced) its containers, every
/// append through a zombie handle must fail with [`WalError::Fenced`].
#[test]
fn crashed_store_leaves_fenced_zombie_wal_handles() {
    let cluster = crash_cluster(None);
    let s = stream("zombie");
    cluster.create_scope("crash").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(2)))
        .unwrap();
    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    for i in 0..80 {
        writer.write_event(&key(i), &event(i));
    }
    writer.flush().unwrap();
    drop(writer);

    // crash_store returns only after the survivors re-opened (and fenced)
    // the victim's logs.
    let victim = cluster.store_hosts()[0].clone();
    let zombies = cluster.crash_store(&victim).unwrap();
    assert!(!zombies.is_empty(), "victim must have run containers");
    for zombie in &zombies {
        let result = zombie.append(bytes::Bytes::from_static(b"zombie")).wait();
        assert!(
            matches!(result, Err(WalError::Fenced)),
            "zombie append must be fenced, got {result:?}"
        );
        assert!(zombie.is_fenced(), "zombie handle must report fenced");
    }

    // The survivors serve reads and writes for the recovered containers.
    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    for i in 80..120 {
        writer.write_event(&key(i), &event(i));
    }
    writer.flush().unwrap();
    let written: HashSet<String> = (0..120).map(event).collect();
    let got = drain_events(&cluster, &s, "g-zombie", written.len());
    assert_exactly_once(&got, &written, &written);
    cluster.shutdown();
}

/// Full-cluster power failure: everything volatile is lost, and the restart
/// recovers exclusively from durable state — WAL for the hot tail, LTS for
/// tiered history, the coordination store for assignment. Recovery counters
/// must show containers actually replayed.
#[test]
fn crash_and_restart_recovers_everything_from_durable_state_only() {
    let cluster = crash_cluster(None);
    let s = stream("restart");
    cluster.create_scope("crash").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(2)))
        .unwrap();

    // A tiered prefix (lives in LTS after tiering)...
    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    for i in 0..100 {
        writer.write_event(&key(i), &event(i));
    }
    writer.flush().unwrap();
    cluster.wait_for_tiering(Duration::from_secs(60)).unwrap();

    // ...plus a hot tail that only the WAL holds at crash time.
    for i in 100..150 {
        writer.write_event(&key(i), &event(i));
    }
    writer.flush().unwrap();
    drop(writer);

    let cluster = cluster.crash_and_restart().unwrap();

    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    for i in 150..180 {
        writer.write_event(&key(i), &event(i));
    }
    writer.flush().unwrap();

    let written: HashSet<String> = (0..180).map(event).collect();
    let got = drain_events(&cluster, &s, "g-restart", written.len());
    assert_exactly_once(&got, &written, &written);

    // Observability: recovery really happened and was instrumented.
    let snap = cluster.metrics().snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert!(
        counter("segmentstore.container.recoveries") > 0,
        "restart must count container recoveries"
    );
    assert!(
        counter("segmentstore.container.replayed_ops") > 0,
        "restart must count replayed operations"
    );
    let recovery_hist = snap
        .histograms
        .iter()
        .find(|(n, _)| n == "segmentstore.container.recovery_nanos")
        .map(|(_, h)| h.clone())
        .expect("recovery-time histogram registered");
    assert!(recovery_hist.count > 0, "recovery time must be recorded");
    cluster.shutdown();
}

/// Crash mid-seal: the Seal operation is in flight when the process dies —
/// it may or may not have committed. Recovery must tolerate either outcome,
/// and re-sealing on the new owner is idempotent.
#[test]
fn crash_mid_seal_tolerates_an_in_flight_seal() {
    let plan = Arc::new(FaultPlan::manual());
    let cluster = crash_cluster(Some(plan.clone()));
    let s = stream("seal");
    cluster.create_scope("crash").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(1)))
        .unwrap();
    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    for i in 0..20 {
        writer.write_event("k", &event(i));
    }
    writer.flush().unwrap();
    drop(writer);

    // Find the data segment's container and its owning store.
    let segment = cluster.controller().current_segments(&s).unwrap()[0]
        .segment
        .clone();
    let container_id = container_for_segment(&segment, 4);
    let owner = cluster
        .store_hosts()
        .into_iter()
        .find(|h| {
            cluster
                .store(h)
                .map(|st| st.running_containers().contains(&container_id))
                .unwrap_or(false)
        })
        .expect("some store owns the container");
    let container = cluster
        .store(&owner)
        .unwrap()
        .container(container_id)
        .unwrap();

    // The seal reaches the pipeline, then the process "dies" before the ack.
    plan.crash_at_next(crashpoints::SEGMENTSTORE_CONTAINER_MID_SEAL);
    let result = container.seal(&segment.qualified_name());
    assert!(
        result.is_err(),
        "mid-seal crash must lose the ack: {result:?}"
    );
    assert_eq!(plan.injected_crashes(), 1);
    plan.set_enabled(false);

    // The owner crashes; a survivor recovers the container (replaying the
    // Seal if it committed) and re-sealing converges on the same state.
    cluster.crash_store(&owner).unwrap();
    let new_owner = cluster
        .store_hosts()
        .into_iter()
        .find(|h| {
            cluster
                .store(h)
                .map(|st| st.running_containers().contains(&container_id))
                .unwrap_or(false)
        })
        .expect("a survivor owns the container");
    assert_ne!(new_owner, owner);
    let recovered = cluster
        .store(&new_owner)
        .unwrap()
        .container(container_id)
        .unwrap();
    recovered.seal(&segment.qualified_name()).unwrap();
    let info = recovered.get_info(&segment.qualified_name()).unwrap();
    assert!(info.sealed, "segment sealed after recovery + re-seal");

    // Every acked pre-seal event is still there, exactly once.
    let written: HashSet<String> = (0..20).map(event).collect();
    let got = drain_events(&cluster, &s, "g-seal", written.len());
    let mut seen = HashSet::new();
    for e in &got {
        assert!(written.contains(e), "read unknown event {e:?}");
        assert!(seen.insert(e.clone()), "duplicate event {e:?}");
    }
    assert_eq!(
        seen.len(),
        written.len(),
        "acked events lost across seal crash"
    );
    cluster.shutdown();
}

/// Graceful stop is the contrast case to `crash_store`: containers drain and
/// checkpoint before the session expires, and survivors recover seamlessly.
#[test]
fn graceful_stop_drains_and_survivors_keep_serving() {
    let cluster = crash_cluster(None);
    let s = stream("stop");
    cluster.create_scope("crash").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(2)))
        .unwrap();
    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    for i in 0..60 {
        writer.write_event(&key(i), &event(i));
    }
    writer.flush().unwrap();
    drop(writer);

    let victim = cluster.store_hosts()[0].clone();
    cluster.stop_store(&victim).unwrap();

    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    for i in 60..120 {
        writer.write_event(&key(i), &event(i));
    }
    writer.flush().unwrap();
    let written: HashSet<String> = (0..120).map(event).collect();
    let got = drain_events(&cluster, &s, "g-stop", written.len());
    assert_exactly_once(&got, &written, &written);
    cluster.shutdown();
}

/// Shutdown and Drop must stay idempotent after a crash: no double-join, no
/// panic on already-torn-down workers.
#[test]
fn shutdown_and_drop_after_crash_are_idempotent() {
    let cluster = crash_cluster(None);
    let s = stream("teardown");
    cluster.create_scope("crash").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(1)))
        .unwrap();
    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    for i in 0..10 {
        writer.write_event("k", &event(i));
    }
    writer.flush().unwrap();
    drop(writer);

    let victim = cluster.store_hosts()[0].clone();
    let _zombies = cluster.crash_store(&victim).unwrap();
    // Stopping a crashed store again is a no-op, not a panic.
    cluster.stop_store(&victim).unwrap();
    cluster.shutdown();
    cluster.shutdown();
    drop(cluster); // Drop runs shutdown once more.
}

/// The crash schedule is a pure function of the seed: identically seeded
/// plans driven through an identical single-threaded sequence of crash
/// points produce byte-identical injection logs; different seeds diverge.
#[test]
fn same_seed_reproduces_the_same_crash_schedule_byte_for_byte() {
    let seed = crash_seed();
    let spec = CrashSpec {
        crash_rate: 0.2,
        max_crashes: u64::MAX,
        points: Vec::new(),
    };
    let run = |seed: u64| {
        let plan = Arc::new(FaultPlan::with_crashes(
            seed,
            FaultSpec::default(),
            spec.clone(),
        ));
        let hook = plan.crash_hook();
        for i in 0..300 {
            let _ = hook.fire(ALL_CRASH_POINTS[i % ALL_CRASH_POINTS.len()]);
        }
        plan.log()
    };
    let a = run(seed);
    let b = run(seed);
    assert!(!a.is_empty(), "20% over 300 draws must fire");
    assert_eq!(a, b, "same seed must reproduce the identical schedule");
    persist_log("crash-schedule", seed, &a);
    let c = run(seed ^ 0xDEAD_BEEF);
    assert_ne!(a, c, "different seeds must diverge");
}
