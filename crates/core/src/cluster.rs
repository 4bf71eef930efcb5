//! The embedded cluster: Figure 1 in one process.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use pravega_client::{
    ClientError, ConnectionFactory, EventStreamReader, EventStreamWriter, ReaderGroup, Serializer,
    WriterConfig,
};
use pravega_common::clock::{self, SystemClock};
use pravega_common::id::{ScopedSegment, ScopedStream, SegmentId};
use pravega_common::metrics::{Histogram, HistogramSummary, MetricsRegistry, Snapshot};
use pravega_common::policy::StreamConfiguration;
use pravega_controller::{
    AutoScaler, AutoScalerConfig, ControllerService, MetadataBackend, RetentionManager,
    ScaleDecision, SegmentLoadSample,
};
use pravega_coordination::{ContainerAssigner, CoordinationService};
use pravega_faults::{FaultPlan, FaultyBookie, FaultyChunkStorage};
use pravega_lts::{
    ChunkStorage, ChunkedSegmentStorage, ChunkedStorageConfig, FileChunkStorage,
    InMemoryChunkStorage, InMemoryMetadataStore, NoOpChunkStorage, RepairSource, ScrubConfig,
    ScrubReport, Scrubber, ScrubberHandle, ThrottleModel, ThrottledChunkStorage,
};
use pravega_segmentstore::{ContainerConfig, SegmentContainer, SegmentStore, SegmentStoreConfig};
use pravega_sync::{rank, Mutex};
use pravega_wal::bookie::Bookie;
use pravega_wal::bookie::JournalBookie;
use pravega_wal::journal::JournalConfig;
use pravega_wal::ledger::{BookiePool, LedgerScrubReport, ReplicationConfig};
use pravega_wal::log::{BookkeeperLog, DurableDataLog, LogConfig};

use crate::error::ClusterError;
use crate::tablebackend::TableMetadataBackend;
use crate::wiring::{
    RoutedConnectionFactory, RoutedEndpointResolver, RoutedSegmentManager, Routing, StoreHandle,
};

/// Which transport clients use to reach segment stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process channel pairs (the embedded default; zero sockets).
    #[default]
    InProcess,
    /// Framed TCP: every store runs a loopback
    /// [`pravega_segmentstore::TcpFrontend`] and clients dial it with the
    /// binary codec (`pravega_common::protocol`).
    Tcp,
}

/// Which long-term storage backend the cluster tiers to.
#[derive(Debug, Clone)]
pub enum LtsKind {
    /// In-memory (tests).
    InMemory,
    /// Local filesystem (NFS-like).
    File(PathBuf),
    /// In-memory behind a bandwidth/latency model (EFS/S3-like, §5.4).
    Throttled(ThrottleModel),
    /// Metadata-only, data discarded (the paper's NoOp LTS test feature).
    NoOp,
}

/// Embedded cluster configuration (Table 1's shape, laptop-sized).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Segment store instances.
    pub segment_store_count: usize,
    /// Total segment containers (hash space).
    pub container_count: u32,
    /// Bookies in the WAL pool.
    pub bookie_count: usize,
    /// Ledger replication scheme (Table 1: 3/3/2).
    pub replication: ReplicationConfig,
    /// Bookie journal behaviour (sync on add = durability).
    pub journal: JournalConfig,
    /// Long-term storage backend.
    pub lts: LtsKind,
    /// LTS chunk size.
    pub max_chunk_bytes: u64,
    /// Per-container tuning.
    pub container: ContainerConfig,
    /// WAL ledger rollover size.
    pub log_rollover_bytes: u64,
    /// Auto-scaler tuning.
    pub autoscaler: AutoScalerConfig,
    /// Deterministic fault injection on the LTS chunk backend (chaos tests).
    /// When set, every chunk operation passes through the plan's decorator
    /// and the plan's counters register in the cluster metrics.
    pub lts_faults: Option<Arc<FaultPlan>>,
    /// Deterministic fault injection on the WAL. The plan decorates a single
    /// bookie (the first), so with the default 3/3/2 replication the ack
    /// quorum survives every injected fault and appends ride through.
    pub wal_faults: Option<Arc<FaultPlan>>,
    /// Seeded crash-point schedules (crash tests). When set, the plan's
    /// crash hook is armed at every named crash point — bookie journals,
    /// container pipeline/storage writer/seal path, and LTS chunk rolls —
    /// so a seed reproduces the same crash schedule run after run.
    pub crash_faults: Option<Arc<FaultPlan>>,
    /// Transport between clients and segment stores.
    pub transport: TransportKind,
    /// Pacing for the background integrity scrubber that walks LTS chunk
    /// footers (and, via [`PravegaCluster::scrub_now`], bookie ledgers).
    pub scrub: ScrubConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            segment_store_count: 3,
            container_count: 4,
            bookie_count: 3,
            replication: ReplicationConfig::default(),
            journal: JournalConfig::default(),
            lts: LtsKind::InMemory,
            max_chunk_bytes: 4 * 1024 * 1024,
            container: ContainerConfig::default(),
            log_rollover_bytes: 1024 * 1024,
            autoscaler: AutoScalerConfig::default(),
            lts_faults: None,
            wal_faults: None,
            crash_faults: None,
            transport: TransportKind::default(),
            scrub: ScrubConfig::default(),
        }
    }
}

/// A running embedded Pravega cluster.
pub struct PravegaCluster {
    config: ClusterConfig,
    coord: CoordinationService,
    bookies: Vec<Arc<JournalBookie>>,
    routing: Arc<Routing>,
    controller: Arc<ControllerService>,
    autoscaler: AutoScaler,
    retention: RetentionManager,
    factory: Arc<dyn ConnectionFactory>,
    lts: ChunkedSegmentStorage,
    /// The concrete in-memory chunk backend when `LtsKind::InMemory` —
    /// kept so corruption-injection tests can mutate stored chunk bytes
    /// behind the system's back.
    chunk_backend: Option<Arc<InMemoryChunkStorage>>,
    metrics: MetricsRegistry,
    /// Per-container WAL logs, collected as containers start: the WAL side
    /// of the integrity scrub walks their ledgers.
    wal_logs: Arc<Mutex<Vec<Arc<BookkeeperLog>>>>,
    /// On-demand scrubber (the `scrub_now` test hook); `None` on NoOp LTS,
    /// whose discarded data cannot be meaningfully verified.
    scrubber: Option<Scrubber>,
    /// Background paced scrubber; stopped (and joined) at shutdown.
    scrub_handle: Mutex<Option<ScrubberHandle>>,
}

/// Handle to a cluster's end-to-end metrics: the shared registry every stage
/// records into, plus per-bookie journal histograms that are folded in at
/// snapshot time (they live inside the WAL journals, outside the registry).
#[derive(Debug, Clone)]
pub struct ClusterMetrics {
    registry: MetricsRegistry,
    bookies: Vec<Arc<JournalBookie>>,
}

impl ClusterMetrics {
    /// The shared registry (for registering extra instruments or asserting
    /// on individual handles in tests).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Point-in-time view of every instrument in the cluster, including the
    /// WAL journals' group-commit histograms merged across bookies
    /// (`wal.journal.group_commit_entries`), the total journal sync count
    /// (`wal.journal.syncs`) and the journal threads that died
    /// (`wal.journal.thread_deaths`).
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = self.registry.snapshot();
        let merged = Histogram::new();
        let (mut syncs, mut deaths) = (0u64, 0u64);
        for bookie in &self.bookies {
            merged.merge_from(&bookie.journal_group_sizes());
            syncs += bookie.journal_syncs();
            deaths += bookie.journal_thread_deaths();
        }
        snap.counters.push(("wal.journal.syncs".to_string(), syncs));
        snap.counters
            .push(("wal.journal.thread_deaths".to_string(), deaths));
        snap.counters.sort();
        snap.histograms.push((
            "wal.journal.group_commit_entries".to_string(),
            HistogramSummary::of(&merged),
        ));
        snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        snap
    }
}

impl std::fmt::Debug for PravegaCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PravegaCluster")
            .field("stores", &self.config.segment_store_count)
            .field("containers", &self.config.container_count)
            .finish()
    }
}

impl PravegaCluster {
    /// Starts the whole system: coordination, bookies, LTS, segment stores
    /// (with container assignment), controller, auto-scaler, retention.
    ///
    /// # Errors
    ///
    /// Propagates substrate bootstrap failures.
    pub fn start(config: ClusterConfig) -> Result<Self, ClusterError> {
        let metrics = MetricsRegistry::new();
        let coord = CoordinationService::new();
        let mut journal = config.journal.clone();
        if let Some(plan) = &config.crash_faults {
            journal.crash_hook = plan.crash_hook();
        }
        let bookies: Vec<Arc<JournalBookie>> = (0..config.bookie_count)
            .map(|i| {
                JournalBookie::new(&format!("bookie-{i}"), journal.clone())
                    .map(Arc::new)
                    .map_err(|e| ClusterError::Other(format!("start bookie-{i}: {e}")))
            })
            .collect::<Result<_, _>>()?;

        let mut chunk_backend: Option<Arc<InMemoryChunkStorage>> = None;
        let mut chunks: Arc<dyn ChunkStorage> = match &config.lts {
            LtsKind::InMemory => {
                let backend = Arc::new(InMemoryChunkStorage::new());
                chunk_backend = Some(backend.clone());
                backend
            }
            LtsKind::File(path) => Arc::new(FileChunkStorage::open(path.clone())?),
            LtsKind::Throttled(model) => Arc::new(ThrottledChunkStorage::new(
                InMemoryChunkStorage::new(),
                *model,
            )),
            LtsKind::NoOp => Arc::new(NoOpChunkStorage::new()),
        };
        if let Some(plan) = &config.lts_faults {
            chunks = Arc::new(FaultyChunkStorage::new(chunks, plan.clone()));
            plan.bind_metrics(&metrics);
        }
        // Chunk *metadata* lives in an in-memory conditional-update store;
        // the paper keeps it in Pravega's own tables (see DESIGN.md for the
        // substitution rationale).
        let mut lts = ChunkedSegmentStorage::new(
            chunks,
            Arc::new(InMemoryMetadataStore::new()),
            ChunkedStorageConfig {
                max_chunk_bytes: config.max_chunk_bytes,
            },
        )
        .with_metrics(&metrics);
        if let Some(plan) = &config.crash_faults {
            lts = lts.with_crash_hook(plan.crash_hook());
            plan.bind_metrics(&metrics);
        }

        Self::boot(config, coord, bookies, lts, chunk_backend, metrics)
    }

    /// Builds the volatile tier — stores, containers, controller, routing —
    /// over an existing durable substrate (bookie pool, LTS chunk storage
    /// and metadata, coordination store). [`PravegaCluster::start`] calls
    /// this with a fresh substrate; [`PravegaCluster::crash_and_restart`]
    /// re-calls it with the substrate that survived the crash, so recovered
    /// state comes exclusively from what was durable.
    fn boot(
        config: ClusterConfig,
        coord: CoordinationService,
        bookies: Vec<Arc<JournalBookie>>,
        lts: ChunkedSegmentStorage,
        chunk_backend: Option<Arc<InMemoryChunkStorage>>,
        metrics: MetricsRegistry,
    ) -> Result<Self, ClusterError> {
        let mut pool_members: Vec<Arc<dyn Bookie>> = bookies
            .iter()
            .map(|b| b.clone() as Arc<dyn Bookie>)
            .collect();
        if let Some(plan) = &config.wal_faults {
            // One faulty bookie keeps the 3/3/2 ack quorum intact, so WAL
            // appends survive injected faults instead of losing quorum.
            if let Some(first) = pool_members.first_mut() {
                *first = Arc::new(FaultyBookie::new(first.clone(), plan.clone()));
            }
            plan.bind_metrics(&metrics);
        }
        let pool = BookiePool::new(pool_members);

        let mut config = config;
        if let Some(hook) = config.crash_faults.as_ref().map(|p| p.crash_hook()) {
            config.container.crash_hook = hook;
        }

        let routing = Arc::new(Routing {
            container_count: config.container_count,
            stores: Mutex::new(rank::CORE_CLUSTER_STORES, HashMap::new()),
            assignment: Mutex::new(rank::CORE_CLUSTER_ASSIGNMENT, BTreeMap::new()),
        });

        // Segment stores.
        let wal_logs: Arc<Mutex<Vec<Arc<BookkeeperLog>>>> =
            Arc::new(Mutex::new(rank::CORE_CLUSTER_WAL_LOGS, Vec::new()));
        for i in 0..config.segment_store_count {
            let host = format!("segmentstore-{i}");
            Self::add_store(
                &config, &coord, &pool, &lts, &routing, &host, &metrics, &wal_logs,
            )?;
        }
        Self::rebalance(&config, &coord, &routing)?;

        // Integrity scrubber: one per LTS store (the cluster shares one
        // chunked store; clones share the quarantine set). Repair routes
        // through whichever live container still retains the chunk's bytes
        // in its WAL.
        let repair_routing = routing.clone();
        let repair: RepairSource = Arc::new(move |segment, _chunk, start, len| {
            let stores: Vec<Arc<SegmentStore>> = repair_routing
                .stores
                .lock()
                .values()
                .filter(|h| h.alive)
                .map(|h| h.store.clone())
                .collect();
            for store in stores {
                for id in store.running_containers() {
                    if let Some(container) = store.container(id) {
                        if let Some(bytes) = container.rebuild_chunk_bytes(segment, start, len) {
                            return Some(bytes);
                        }
                    }
                }
            }
            None
        });
        // NoOp LTS discards data and reads back zeros: scrubbing it would
        // "detect" corruption everywhere and quarantine every chunk. The
        // throttled backend charges scrub reads against the modeled
        // bandwidth, so continuous background scanning would distort the
        // perf experiments it exists for — on-demand scrubs stay available.
        let scrubber = match config.lts {
            LtsKind::NoOp => None,
            _ => {
                Some(Scrubber::new(lts.clone(), config.scrub, &metrics).with_repair(repair.clone()))
            }
        };
        let background = match config.lts {
            LtsKind::InMemory | LtsKind::File(_) => {
                Some(Scrubber::new(lts.clone(), config.scrub, &metrics).with_repair(repair))
            }
            LtsKind::Throttled(_) | LtsKind::NoOp => None,
        };
        let running = match background {
            Some(scrubber) => Some(scrubber.start().map_err(ClusterError::Lts)?),
            None => None,
        };
        let scrub_handle = Mutex::new(rank::CORE_CLUSTER_SCRUBBER, running);

        let factory: Arc<dyn ConnectionFactory> = Arc::new(RoutedConnectionFactory {
            routing: routing.clone(),
        });
        let clock = Arc::new(SystemClock::new());

        // Controller metadata lives in a Pravega table segment, as the paper
        // describes.
        let table = ScopedStream::new("sys", "stream-metadata")
            .expect("static name is valid")
            .segment(SegmentId::new(0, 0));
        let backend: Arc<dyn MetadataBackend> =
            Arc::new(TableMetadataBackend::create(routing.clone(), table)?);

        let controller = Arc::new(ControllerService::new(
            backend,
            Arc::new(RoutedSegmentManager {
                routing: routing.clone(),
            }),
            Arc::new(RoutedEndpointResolver {
                routing: routing.clone(),
            }),
            clock.clone(),
        ));
        let autoscaler =
            AutoScaler::new(controller.clone(), clock.clone(), config.autoscaler.clone());
        let retention = RetentionManager::new(controller.clone(), clock);

        Ok(Self {
            config,
            coord,
            bookies,
            routing,
            controller,
            autoscaler,
            retention,
            factory,
            lts,
            chunk_backend,
            metrics,
            wal_logs,
            scrubber,
            scrub_handle,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn add_store(
        config: &ClusterConfig,
        coord: &CoordinationService,
        pool: &BookiePool,
        lts: &ChunkedSegmentStorage,
        routing: &Arc<Routing>,
        host: &str,
        metrics: &MetricsRegistry,
        wal_logs: &Arc<Mutex<Vec<Arc<BookkeeperLog>>>>,
    ) -> Result<(), ClusterError> {
        let session = coord.create_session();
        ContainerAssigner::register_host(coord, host, session.id())
            .map_err(|e| ClusterError::Other(e.to_string()))?;
        let factory_pool = pool.clone();
        let factory_coord = coord.clone();
        let factory_lts = lts.clone();
        let container_config = config.container.clone();
        let replication = config.replication;
        let rollover = config.log_rollover_bytes;
        let factory_metrics = metrics.clone();
        let factory_wal_logs = wal_logs.clone();
        let store = SegmentStore::new_with_metrics(
            SegmentStoreConfig {
                host_id: host.to_string(),
                container_count: config.container_count,
                container: container_config.clone(),
            },
            Arc::new(move |id| {
                let log = Arc::new(
                    BookkeeperLog::open(
                        &format!("container-{}", id.0),
                        &factory_pool,
                        &factory_coord,
                        LogConfig {
                            rollover_bytes: rollover,
                            replication,
                        },
                    )
                    .map_err(pravega_segmentstore::SegmentError::Wal)?,
                );
                log.bind_metrics(&factory_metrics);
                factory_wal_logs.lock().push(log.clone());
                let wal: Arc<dyn DurableDataLog> = log;
                SegmentContainer::start_with_metrics(
                    id,
                    wal,
                    factory_lts.clone(),
                    Arc::new(SystemClock::new()),
                    container_config.clone(),
                    &factory_metrics,
                )
            }),
            metrics,
        );
        let frontend = match config.transport {
            TransportKind::InProcess => None,
            TransportKind::Tcp => Some(
                pravega_segmentstore::TcpFrontend::start(store.clone(), metrics)
                    .map_err(|e| ClusterError::Other(format!("start frontend on {host}: {e}")))?,
            ),
        };
        routing.stores.lock().insert(
            host.to_string(),
            StoreHandle {
                store,
                session,
                alive: true,
                frontend,
            },
        );
        Ok(())
    }

    fn rebalance(
        config: &ClusterConfig,
        coord: &CoordinationService,
        routing: &Arc<Routing>,
    ) -> Result<(), ClusterError> {
        let assigner = ContainerAssigner::new(coord, config.container_count);
        let map = assigner.rebalance();
        *routing.assignment.lock() = map.clone();
        // Reconcile every live store with its share.
        let stores: Vec<(String, Arc<SegmentStore>)> = routing
            .stores
            .lock()
            .iter()
            .filter(|(_, h)| h.alive)
            .map(|(host, h)| (host.clone(), h.store.clone()))
            .collect();
        for (host, store) in stores {
            let assigned: Vec<u32> = map
                .iter()
                .filter(|(_, h)| **h == host)
                .map(|(c, _)| *c)
                .collect();
            store.reconcile_containers(&assigned)?;
        }
        Ok(())
    }

    /// The controller service.
    pub fn controller(&self) -> Arc<ControllerService> {
        self.controller.clone()
    }

    /// The client connection factory.
    pub fn connection_factory(&self) -> Arc<dyn ConnectionFactory> {
        self.factory.clone()
    }

    /// The long-term storage (diagnostics: chunk layout, historical reads).
    pub fn lts(&self) -> &ChunkedSegmentStorage {
        &self.lts
    }

    /// The concrete in-memory chunk backend, when the cluster runs on
    /// [`LtsKind::InMemory`] — the injection surface corruption tests flip
    /// stored bits through (`pravega_faults::corrupt_chunk`).
    pub fn chunk_backend(&self) -> Option<Arc<InMemoryChunkStorage>> {
        self.chunk_backend.clone()
    }

    /// The bookies backing the WAL pool — the injection surface corruption
    /// tests mutate stored entries through (`pravega_faults::corrupt_entry`).
    pub fn mem_bookies(&self) -> Vec<Arc<JournalBookie>> {
        self.bookies.clone()
    }

    /// The cluster's end-to-end metrics: every pipeline stage — client
    /// writer, operation pipeline, WAL, storage writer, LTS, read path,
    /// client reader — records into one shared registry;
    /// [`ClusterMetrics::snapshot`] captures all of it at once.
    pub fn metrics(&self) -> ClusterMetrics {
        ClusterMetrics {
            registry: self.metrics.clone(),
            bookies: self.bookies.clone(),
        }
    }

    /// Host ids of all (live and dead) registered stores.
    pub fn store_hosts(&self) -> Vec<String> {
        let mut hosts: Vec<String> = self.routing.stores.lock().keys().cloned().collect();
        hosts.sort();
        hosts
    }

    /// All running containers across live stores.
    pub fn containers(&self) -> Vec<Arc<SegmentContainer>> {
        let stores = self.routing.stores.lock();
        stores
            .values()
            .filter(|h| h.alive)
            .flat_map(|h| {
                h.store
                    .running_containers()
                    .into_iter()
                    .filter_map(|id| h.store.container(id))
            })
            .collect()
    }

    /// One immediate, unpaced integrity pass over the whole durable tier:
    /// every LTS chunk (blocks + footers, repairing corrupt chunks from
    /// still-retained WAL data) and every bookie ledger entry across the
    /// ensemble (re-replicating healthy copies over rotten replicas). The
    /// background scrubber does the same LTS walk continuously, paced; this
    /// is the test hook.
    pub fn scrub_now(&self) -> (ScrubReport, LedgerScrubReport) {
        let chunks = self
            .scrubber
            .as_ref()
            .map(Scrubber::scrub_now)
            .unwrap_or_default();
        let logs: Vec<Arc<BookkeeperLog>> = self.wal_logs.lock().clone();
        let mut ledgers = LedgerScrubReport::default();
        for log in logs {
            let r = log.scrub_ledgers();
            ledgers.replicas_checked += r.replicas_checked;
            ledgers.corrupt += r.corrupt;
            ledgers.repaired += r.repaired;
        }
        (chunks, ledgers)
    }

    /// Creates a scope.
    ///
    /// # Errors
    ///
    /// Controller failures.
    pub fn create_scope(&self, scope: &str) -> Result<(), ClusterError> {
        self.controller.create_scope(scope)?;
        Ok(())
    }

    /// Creates a stream.
    ///
    /// # Errors
    ///
    /// Controller failures.
    pub fn create_stream(
        &self,
        stream: &ScopedStream,
        config: StreamConfiguration,
    ) -> Result<(), ClusterError> {
        self.controller.create_stream(stream, config)?;
        Ok(())
    }

    /// Creates an event writer for `stream`. The writer's instruments are
    /// re-homed into the cluster's shared registry so they show up in
    /// [`PravegaCluster::metrics`] snapshots.
    pub fn create_writer<T, S: Serializer<T>>(
        &self,
        stream: ScopedStream,
        serializer: S,
        mut config: WriterConfig,
    ) -> EventStreamWriter<T, S> {
        config.metrics = self.metrics.clone();
        EventStreamWriter::new(
            stream,
            self.controller.clone(),
            self.factory.clone(),
            serializer,
            config,
        )
    }

    /// Creates (or joins) a reader group over `streams`.
    ///
    /// # Errors
    ///
    /// Client/controller failures.
    pub fn create_reader_group(
        &self,
        scope: &str,
        name: &str,
        streams: Vec<ScopedStream>,
    ) -> Result<Arc<ReaderGroup>, ClusterError> {
        Ok(ReaderGroup::create(
            scope,
            name,
            streams,
            self.controller.clone(),
            self.factory.clone(),
        )?)
    }

    /// Creates a reader within a group, recording into the cluster's shared
    /// metrics registry.
    pub fn create_reader<T, S: Serializer<T>>(
        &self,
        group: &Arc<ReaderGroup>,
        reader_id: &str,
        serializer: S,
    ) -> EventStreamReader<T, S> {
        EventStreamReader::new_with_metrics(reader_id, group.clone(), serializer, &self.metrics)
    }

    /// One auto-scaler pass: collects data-plane load reports (the feedback
    /// loop of §3.1) and lets the policy engine scale streams. Returns the
    /// decisions taken.
    ///
    /// # Errors
    ///
    /// Controller failures while executing a scale.
    pub fn run_autoscaler_once(&self) -> Result<Vec<(ScopedStream, ScaleDecision)>, ClusterError> {
        let mut by_stream: HashMap<ScopedStream, Vec<SegmentLoadSample>> = HashMap::new();
        {
            let stores = self.routing.stores.lock();
            for handle in stores.values().filter(|h| h.alive) {
                for load in handle.store.load_report() {
                    let Ok(segment) = ScopedSegment::parse(&load.segment) else {
                        continue;
                    };
                    by_stream.entry(segment.stream().clone()).or_default().push(
                        SegmentLoadSample {
                            segment: segment.segment_id(),
                            events_per_sec: load.events_per_sec,
                            bytes_per_sec: load.bytes_per_sec,
                        },
                    );
                }
            }
        }
        let mut decisions = Vec::new();
        for (stream, samples) in by_stream {
            match self.autoscaler.process_reports(&stream, &samples) {
                Ok(Some(decision)) => decisions.push((stream, decision)),
                Ok(None) => {}
                Err(pravega_controller::ControllerError::StreamNotFound) => {
                    // System/reader-group segments: not auto-scaled streams.
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(decisions)
    }

    /// One retention pass over a stream.
    ///
    /// # Errors
    ///
    /// Controller failures.
    pub fn run_retention_once(&self, stream: &ScopedStream) -> Result<(), ClusterError> {
        self.retention.run_once(stream)?;
        Ok(())
    }

    /// Failure injection: takes a bookie down. With the default 3/3/2
    /// replication, one dead bookie leaves the ack quorum intact and writes
    /// continue (§5.1's replication scheme).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn kill_bookie(&self, index: usize) {
        self.bookies[index].set_available(false);
    }

    /// Failure injection: brings a bookie back.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn restore_bookie(&self, index: usize) {
        self.bookies[index].set_available(true);
    }

    /// Number of bookies in the WAL pool.
    pub fn bookie_count(&self) -> usize {
        self.bookies.len()
    }

    /// Direct access to a segment store (tests/diagnostics).
    pub fn store(&self, host: &str) -> Option<Arc<SegmentStore>> {
        self.routing
            .stores
            .lock()
            .get(host)
            .map(|h| h.store.clone())
    }

    /// Gracefully stops a segment store: its containers drain their
    /// pipelines and join their threads, its session expires, and its
    /// containers are re-assigned to the survivors, which recover them from
    /// the WAL (§4.4). For an *abrupt* failure — no draining, no flushing —
    /// use [`PravegaCluster::crash_store`].
    ///
    /// # Errors
    ///
    /// Rebalance failures.
    pub fn stop_store(&self, host: &str) -> Result<(), ClusterError> {
        let (store, session_id) = self.take_store(host)?;
        store.shutdown();
        self.coord.expire_session(session_id);
        Self::rebalance(&self.config, &self.coord, &self.routing)?;
        Ok(())
    }

    /// Abruptly crashes a segment store, as if its process died: in-flight
    /// operations are abandoned (no flush, no checkpoint, workers torn down
    /// without draining, an in-flight journal frame may be left torn in the
    /// WAL). Its session expires and the survivors recover its containers
    /// from durable state, fencing the crashed store's WAL logs (§4.4).
    ///
    /// Returns the crashed containers' WAL handles — the lingering "zombie"
    /// writers. Appends through them must fail with
    /// [`pravega_wal::error::WalError::Fenced`] once recovery has fenced
    /// the logs.
    ///
    /// # Errors
    ///
    /// Rebalance failures.
    pub fn crash_store(&self, host: &str) -> Result<Vec<Arc<dyn DurableDataLog>>, ClusterError> {
        let (store, session_id) = self.take_store(host)?;
        let zombies = store.crash();
        self.coord.expire_session(session_id);
        Self::rebalance(&self.config, &self.coord, &self.routing)?;
        Ok(zombies)
    }

    /// Marks `host` dead in routing and returns its store + session id.
    /// Any TCP frontend stops too (its clients see `ConnectionClosed`, just
    /// like a remote process death).
    fn take_store(
        &self,
        host: &str,
    ) -> Result<(Arc<SegmentStore>, pravega_coordination::SessionId), ClusterError> {
        let (store, session_id, frontend) = {
            let mut stores = self.routing.stores.lock();
            let handle = stores
                .get_mut(host)
                .ok_or_else(|| ClusterError::Other(format!("unknown host {host}")))?;
            handle.alive = false;
            (
                handle.store.clone(),
                handle.session.id(),
                handle.frontend.take(),
            )
        };
        if let Some(frontend) = frontend {
            frontend.stop();
        }
        Ok((store, session_id))
    }

    /// Crashes the **whole cluster** abruptly and rebuilds it from durable
    /// state only: the same bookie pool (WAL), the same LTS chunk storage
    /// and chunk metadata, and the same coordination store survive; every
    /// store, container, controller and routing table is rebuilt from
    /// scratch. Anything that was only in volatile memory — unacked
    /// in-flight operations, read caches, in-memory indices — is lost,
    /// exactly as in a power failure. Every event that was acknowledged
    /// before the crash must be readable afterwards.
    ///
    /// # Errors
    ///
    /// Substrate re-bootstrap failures.
    pub fn crash_and_restart(self) -> Result<Self, ClusterError> {
        // Crash every store abruptly; the zombie WAL handles are dropped
        // (crash_store is the API for holding on to them).
        type Taken = (
            Arc<SegmentStore>,
            pravega_coordination::SessionId,
            Option<Arc<pravega_segmentstore::TcpFrontend>>,
        );
        let handles: Vec<Taken> = {
            let mut stores = self.routing.stores.lock();
            stores
                .values_mut()
                .map(|h| {
                    h.alive = false;
                    (h.store.clone(), h.session.id(), h.frontend.take())
                })
                .collect()
        };
        for (store, session_id, frontend) in handles {
            if let Some(frontend) = frontend {
                frontend.stop();
            }
            let _ = store.crash();
            self.coord.expire_session(session_id);
        }
        // Only the durable substrate crosses the restart.
        let config = self.config.clone();
        let coord = self.coord.clone();
        let bookies = self.bookies.clone();
        let lts = self.lts.clone();
        let chunk_backend = self.chunk_backend.clone();
        let metrics = self.metrics.clone();
        // The old handle's Drop runs shutdown(), which is a no-op on the
        // already-crashed (drained) stores.
        drop(self);
        Self::boot(config, coord, bookies, lts, chunk_backend, metrics)
    }

    /// Total bytes committed but not yet tiered to LTS across the cluster.
    pub fn unflushed_bytes(&self) -> u64 {
        self.containers().iter().map(|c| c.unflushed_bytes()).sum()
    }

    /// Waits until all ingested data has been tiered to LTS.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Other`] on timeout.
    #[expect(
        clippy::disallowed_methods,
        reason = "deadline-bounded drain poll for tests and diagnostics; retries nothing"
    )]
    pub fn wait_for_tiering(&self, timeout: Duration) -> Result<(), ClusterError> {
        let deadline = clock::monotonic_now() + timeout;
        loop {
            if self.unflushed_bytes() == 0 {
                return Ok(());
            }
            if clock::monotonic_now() > deadline {
                return Err(ClusterError::Other(format!(
                    "tiering did not drain in {timeout:?} ({} bytes left)",
                    self.unflushed_bytes()
                )));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// TCP listener addresses per live store (empty on the embedded
    /// transport). Load generators dial these directly.
    pub fn tcp_endpoints(&self) -> Vec<(String, std::net::SocketAddr)> {
        let stores = self.routing.stores.lock();
        let mut endpoints: Vec<(String, std::net::SocketAddr)> = stores
            .iter()
            .filter(|(_, h)| h.alive)
            .filter_map(|(host, h)| h.frontend.as_ref().map(|f| (host.clone(), f.local_addr())))
            .collect();
        endpoints.sort_by(|a, b| a.0.cmp(&b.0));
        endpoints
    }

    /// Failure injection: severs every live TCP connection on every store's
    /// frontend mid-flight. Returns how many were cut. A no-op (returning 0)
    /// on the embedded transport. Clients must reconnect and re-handshake;
    /// the event-number handshake keeps appends exactly-once across the cut.
    pub fn kill_tcp_connections(&self) -> usize {
        let frontends: Vec<Arc<pravega_segmentstore::TcpFrontend>> = {
            let stores = self.routing.stores.lock();
            stores
                .values()
                .filter(|h| h.alive)
                .filter_map(|h| h.frontend.clone())
                .collect()
        };
        frontends.iter().map(|f| f.kill_connections()).sum()
    }

    /// Stops every store (and any TCP frontends).
    pub fn shutdown(&self) {
        // Take the handle out first: joining the scrubber thread while
        // holding the handle mutex would hold a rank-940 guard across the
        // lower-rank locks the scrub pass itself takes.
        let scrubber = self.scrub_handle.lock().take();
        if let Some(handle) = scrubber {
            handle.stop();
        }
        type Running = (
            Arc<SegmentStore>,
            Option<Arc<pravega_segmentstore::TcpFrontend>>,
        );
        let stores: Vec<Running> = self
            .routing
            .stores
            .lock()
            .values()
            .map(|h| (h.store.clone(), h.frontend.clone()))
            .collect();
        for (store, frontend) in stores {
            if let Some(frontend) = frontend {
                frontend.stop();
            }
            store.shutdown();
        }
    }
}

impl Drop for PravegaCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Convenience: map [`ClientError`] into [`ClusterError`] at call sites that
/// deal with both.
pub fn client_err(e: ClientError) -> ClusterError {
    ClusterError::Client(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pravega_client::StringSerializer;
    use pravega_common::policy::ScalingPolicy;

    /// Pins the shutdown ordering end to end: with the transport queues
    /// bounded, `shutdown()` must stop frontends and stores in an order that
    /// releases each pump's sender before joining it. A join-before-release
    /// reorder anywhere in the chain (frontend, durable log, journal, ledger
    /// workers) would hang here; the watchdog turns that into a failure.
    #[test]
    fn shutdown_completes_promptly_after_client_traffic() {
        let cluster = PravegaCluster::start(ClusterConfig::default()).unwrap();
        cluster.create_scope("t").unwrap();
        let s = ScopedStream::new("t", "s").unwrap();
        cluster
            .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(1)))
            .unwrap();
        let mut writer = cluster.create_writer(s, StringSerializer, WriterConfig::default());
        for i in 0..100 {
            writer.write_event("k", &format!("event-{i}"));
        }
        writer.flush().unwrap();
        drop(writer);
        let stopper = std::thread::spawn(move || drop(cluster));
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while !stopper.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "PravegaCluster shutdown deadlocked: a pump was joined before its sender was released"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        stopper.join().unwrap();
    }
}
