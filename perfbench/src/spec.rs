//! The three workloads. README.md says why each exists and which
//! layer it is meant to stress.

/// One workload: the server topology it boots, the corpus it prefills,
/// and the request mix it drives.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub shards: usize,
    pub replicas: usize,
    /// Boot with `--wal DIR --wal-fsync-every 1`.
    pub wal: bool,
    /// Images inserted over HTTP during set-up.
    pub prefill: usize,
    /// Share of requests that are scene searches; the rest are writes.
    pub search_share: f64,
    /// Searches send `"two_stage": true`; otherwise the server's
    /// default exhaustive scoring runs.
    pub two_stage: bool,
}

const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "exact-scan",
        shards: 1,
        replicas: 1,
        wal: false,
        prefill: 2_000,
        search_share: 1.0,
        two_stage: false,
    },
    Spec {
        name: "staged-sharded",
        shards: 4,
        replicas: 2,
        wal: false,
        prefill: 8_000,
        search_share: 1.0,
        two_stage: true,
    },
    Spec {
        name: "write-mix",
        shards: 2,
        replicas: 2,
        wal: true,
        prefill: 500,
        search_share: 0.25,
        two_stage: true,
    },
];

pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// `be2d-server` flags for this topology (`--wal` is added by the
    /// caller, which owns the directory).
    pub fn server_args(&self) -> Vec<String> {
        vec![
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--shards".into(),
            self.shards.to_string(),
            "--replicas".into(),
            self.replicas.to_string(),
        ]
    }
}
