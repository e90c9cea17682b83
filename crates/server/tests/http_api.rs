//! End-to-end integration tests: a real server on a real TCP socket,
//! driven by the blocking client.

use be2d_server::client::Client;
use be2d_server::{Server, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::Duration;

struct RunningServer {
    addr: SocketAddr,
    handle: ServerHandle,
    runner: Option<JoinHandle<std::io::Result<()>>>,
}

impl RunningServer {
    fn start(config: ServerConfig) -> RunningServer {
        let server = Server::bind(config).expect("bind ephemeral port");
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run());
        RunningServer {
            addr,
            handle,
            runner: Some(runner),
        }
    }

    fn client(&self) -> Client {
        Client::new(self.addr, Duration::from_secs(10))
    }

    fn stop(mut self) {
        self.handle.shutdown();
        self.runner
            .take()
            .expect("still running")
            .join()
            .expect("server thread")
            .expect("clean shutdown");
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        if let Some(runner) = self.runner.take() {
            self.handle.shutdown();
            let _ = runner.join();
        }
    }
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 4,
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    }
}

const LEFT_SCENE: &str = r#"{"width":100,"height":100,"objects":[
    {"class":"A","mbr":[10,30,40,60]},{"class":"B","mbr":[60,85,40,60]}]}"#;
const RIGHT_SCENE: &str = r#"{"width":100,"height":100,"objects":[
    {"class":"B","mbr":[10,30,40,60]},{"class":"A","mbr":[60,85,40,60]}]}"#;

/// The acceptance-criteria flow: insert → search → snapshot → restore →
/// search, all over real TCP sockets.
#[test]
fn insert_search_snapshot_restore_search() {
    let dir = std::env::temp_dir().join(format!("be2d_http_api_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let server = RunningServer::start(ServerConfig {
        snapshot_dir: dir.clone(),
        ..test_config()
    });
    let mut client = server.client();

    // insert two images
    let response = client
        .request(
            "POST",
            "/v1/images",
            &format!(r#"{{"name":"left","scene":{LEFT_SCENE}}}"#),
        )
        .unwrap();
    assert_eq!(response.status, 201, "{}", response.text());
    assert!(response.text().contains("\"id\":0"));
    let response = client
        .request(
            "POST",
            "/v1/images",
            &format!(r#"{{"name":"right","scene":{RIGHT_SCENE}}}"#),
        )
        .unwrap();
    assert_eq!(response.status, 201);

    // search ranks the exact match first
    let search_body = format!(r#"{{"scene":{LEFT_SCENE},"options":{{"top_k":2}}}}"#);
    let response = client.request("POST", "/v1/search", &search_body).unwrap();
    assert_eq!(response.status, 200);
    let text = response.text();
    let left_at = text.find("\"left\"").expect("left in results");
    let right_at = text.find("\"right\"").expect("right in results");
    assert!(left_at < right_at, "exact match ranked first: {text}");

    // snapshot to a named file inside the configured snapshot dir
    let snap_body = r#"{"path":"flow.json"}"#;
    let response = client.request("POST", "/v1/snapshot", snap_body).unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    assert!(response.text().contains("\"records\":2"));

    // mutate: drop one image, verify the search changes
    let response = client.request("DELETE", "/v1/images/0", "").unwrap();
    assert_eq!(response.status, 200);
    let response = client.request("POST", "/v1/search", &search_body).unwrap();
    assert!(!response.text().contains("\"left\""));

    // restore brings it back
    let response = client.request("POST", "/v1/restore", snap_body).unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    assert!(response.text().contains("\"records\":2"));
    let response = client.request("POST", "/v1/search", &search_body).unwrap();
    assert!(response.text().contains("\"left\""), "{}", response.text());
    assert!(dir.join("flow.json").is_file(), "snapshot confined to dir");

    std::fs::remove_dir_all(&dir).ok();
    drop(client);
    server.stop();
}

#[test]
fn incremental_object_maintenance_changes_results() {
    let server = RunningServer::start(test_config());
    let mut client = server.client();
    client
        .request(
            "POST",
            "/v1/images",
            &format!(r#"{{"name":"base","scene":{LEFT_SCENE}}}"#),
        )
        .unwrap();

    // a query for class Z misses, then hits after the incremental add
    let z_query =
        r#"{"scene":{"width":100,"height":100,"objects":[{"class":"Z","mbr":[1,9,1,9]}]}}"#;
    let response = client.request("POST", "/v1/search", z_query).unwrap();
    assert_eq!(response.text(), r#"{"hits":[]}"#);

    let add = r#"{"class":"Z","mbr":[1,9,1,9]}"#;
    let response = client.request("POST", "/v1/images/0/objects", add).unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    let response = client.request("POST", "/v1/search", z_query).unwrap();
    assert!(response.text().contains("\"base\""));

    // and misses again after the incremental removal
    let response = client
        .request("DELETE", "/v1/images/0/objects", add)
        .unwrap();
    assert_eq!(response.status, 200);
    let response = client.request("POST", "/v1/search", z_query).unwrap();
    assert_eq!(response.text(), r#"{"hits":[]}"#);

    drop(client);
    server.stop();
}

#[test]
fn sketch_text_queries_and_transform_options() {
    let server = RunningServer::start(test_config());
    let mut client = server.client();
    client
        .request(
            "POST",
            "/v1/images",
            &format!(r#"{{"name":"ab","scene":{LEFT_SCENE}}}"#),
        )
        .unwrap();

    // the paper's §1 query as a sketch
    let response = client
        .request("POST", "/v1/search/sketch", r#"{"sketch":"A left-of B"}"#)
        .unwrap();
    assert_eq!(response.status, 200);
    assert!(response.text().contains("\"ab\""), "{}", response.text());

    // transform-invariant search finds a rotated insert
    let rotated = r#"{"name":"rot","scene":{"width":100,"height":100,"objects":[
        {"class":"Q","mbr":[40,60,10,30]},{"class":"R","mbr":[40,60,60,85]}]}}"#;
    client.request("POST", "/v1/images", rotated).unwrap();
    let query = r#"{"scene":{"width":100,"height":100,"objects":[
        {"class":"Q","mbr":[10,30,40,60]},{"class":"R","mbr":[60,85,40,60]}]},
        "options":{"transforms":"paper-set","top_k":1}}"#;
    let response = client.request("POST", "/v1/search", query).unwrap();
    let text = response.text();
    assert!(text.contains("\"rot\""), "{text}");
    assert!(text.contains("rotate-"), "best transform reported: {text}");

    // text-form query: the Display rendering of the stored image's own
    // strings must retrieve it with score 1
    let stored = be2d_core::convert_scene(
        &be2d_geometry::SceneBuilder::new(100, 100)
            .object("A", (10, 30, 40, 60))
            .object("B", (60, 85, 40, 60))
            .build()
            .unwrap(),
    );
    let body = format!(
        r#"{{"text":{{"u":{:?},"v":{:?}}},"options":{{"top_k":1}}}}"#,
        stored.x().to_string(),
        stored.y().to_string()
    );
    let response = client.request("POST", "/v1/search", &body).unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    assert!(response.text().contains("\"ab\""), "{}", response.text());

    drop(client);
    server.stop();
}

#[test]
fn error_statuses_over_the_wire() {
    let server = RunningServer::start(test_config());
    let mut client = server.client();

    for (method, path, body, expected) in [
        ("GET", "/nope", "", 404),
        ("GET", "/v1/images", "", 405),
        ("DELETE", "/v1/images/notanumber", "", 400),
        ("DELETE", "/v1/images/99", "", 404),
        ("POST", "/v1/search", "{not json", 400),
        (
            "POST",
            "/v1/search",
            r#"{"scene":{"width":0,"height":5}}"#,
            400,
        ),
        (
            "POST",
            "/v1/search/sketch",
            r#"{"sketch":"A teleports B"}"#,
            422,
        ),
        (
            "POST",
            "/v1/restore",
            r#"{"path":"no-such-snapshot.json"}"#,
            500,
        ),
        ("POST", "/v1/restore", r#"{"path":"/etc/passwd"}"#, 400),
        ("POST", "/v1/snapshot", r#"{"path":"../escape.json"}"#, 400),
    ] {
        let response = client.request(method, path, body).unwrap();
        assert_eq!(
            response.status,
            expected,
            "{method} {path}: {}",
            response.text()
        );
        assert!(response.text().contains("\"error\""), "{}", response.text());
    }

    drop(client);
    server.stop();
}

/// The retired execution switches stay on the wire: `two_stage` and
/// `candidates` are accepted, checked and ignored, so every accepted
/// value returns the same hits, and a malformed one still earns the 400
/// envelope.
#[test]
fn retired_execution_options_are_accepted_and_ignored() {
    let server = RunningServer::start(ServerConfig {
        shards: 2,
        ..test_config()
    });
    let mut client = server.client();
    for i in 0..16 {
        let (x, y) = ((i * 7) % 60, (i * 13) % 50);
        let body = format!(
            r#"{{"name":"img-{i}","scene":{{"width":100,"height":100,"objects":[
                {{"class":"A","mbr":[{x},{},{y},{}]}},{{"class":"B","mbr":[60,85,40,60]}}]}}}}"#,
            x + 12,
            y + 9
        );
        let response = client.request("POST", "/v1/images", &body).unwrap();
        assert_eq!(response.status, 201, "{}", response.text());
    }
    let search = |client: &mut Client, extra: &str| {
        let body = format!(r#"{{"scene":{LEFT_SCENE},"options":{{"top_k":5{extra}}}}}"#);
        client.request("POST", "/v1/search", &body).unwrap()
    };
    let baseline = search(&mut client, "");
    assert_eq!(baseline.status, 200, "{}", baseline.text());
    assert!(baseline.text().contains("\"img-"), "{}", baseline.text());
    for two_stage in [
        "",
        r#","two_stage":true"#,
        r#","two_stage":4"#,
        r#","two_stage":false"#,
        r#","two_stage":null"#,
    ] {
        for candidates in [
            "",
            r#","candidates":"scan""#,
            r#","candidates":"class-index""#,
        ] {
            let response = search(&mut client, &format!("{two_stage}{candidates}"));
            assert_eq!(response.status, 200, "{two_stage}{candidates}");
            assert_eq!(response.text(), baseline.text(), "{two_stage}{candidates}");
        }
    }
    for parallel in [
        r#","parallel":true"#,
        r#","parallel":false"#,
        r#","parallel":"off""#,
        r#","parallel":"on""#,
        r#","parallel":"auto""#,
    ] {
        let response = search(&mut client, parallel);
        assert_eq!(response.status, 200, "{parallel}");
        assert_eq!(response.text(), baseline.text(), "{parallel}");
    }
    for bad in [
        r#","two_stage":0"#,
        r#","candidates":"bogus""#,
        r#","parallel":"maybe""#,
        r#","parallel":3"#,
    ] {
        let response = search(&mut client, bad);
        assert_eq!(response.status, 400, "{bad}: {}", response.text());
        assert!(response.text().contains("\"error\""), "{}", response.text());
    }

    drop(client);
    server.stop();
}

#[test]
fn stats_reflect_traffic_and_health_is_cheap() {
    let server = RunningServer::start(test_config());
    let mut client = server.client();

    let response = client.request("GET", "/healthz", "").unwrap();
    assert_eq!(response.status, 200);
    let health = response.text();
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(
        health.contains(&format!("\"version\":\"{}\"", env!("CARGO_PKG_VERSION"))),
        "{health}"
    );
    assert!(health.contains("\"uptime_s\":"), "{health}");

    client
        .request(
            "POST",
            "/v1/images",
            &format!(r#"{{"name":"s","scene":{LEFT_SCENE}}}"#),
        )
        .unwrap();
    client
        .request(
            "POST",
            "/v1/search",
            &format!(r#"{{"scene":{LEFT_SCENE}}}"#),
        )
        .unwrap();
    let _ = client.request("GET", "/nope", "").unwrap();

    let response = client.request("GET", "/v1/stats", "").unwrap();
    let text = response.text();
    assert!(text.contains("\"records\":1"), "{text}");
    assert!(text.contains("\"objects\":2"), "{text}");
    assert!(text.contains("\"classes\":2"), "{text}");
    assert!(text.contains("\"inserts\":1"), "{text}");
    assert!(text.contains("\"searches\":1"), "{text}");
    assert!(text.contains("\"errors\":1"), "{text}");
    assert!(text.contains("\"threads\":4"), "{text}");

    drop(client);
    server.stop();
}

#[test]
fn symbolic_insert_matches_scene_insert() {
    use be2d_core::SymbolicImage;
    use be2d_geometry::SceneBuilder;

    let server = RunningServer::start(test_config());
    let mut client = server.client();

    // insert the same image once as a scene, once pre-converted
    let scene = SceneBuilder::new(100, 100)
        .object("A", (10, 30, 40, 60))
        .object("B", (60, 85, 40, 60))
        .build()
        .unwrap();
    let symbolic = SymbolicImage::from_scene(&scene);
    client
        .request(
            "POST",
            "/v1/images",
            &format!(r#"{{"name":"as-scene","scene":{LEFT_SCENE}}}"#),
        )
        .unwrap();
    let response = client
        .request(
            "POST",
            "/v1/images",
            &format!(
                r#"{{"name":"as-symbolic","symbolic":{}}}"#,
                serde_json::to_string(&symbolic).unwrap()
            ),
        )
        .unwrap();
    assert_eq!(response.status, 201, "{}", response.text());

    // both must score 1.0 for the exact query
    let response = client
        .request(
            "POST",
            "/v1/search",
            &format!(r#"{{"scene":{LEFT_SCENE},"options":{{"min_score":0.999}}}}"#),
        )
        .unwrap();
    let text = response.text();
    assert!(
        text.contains("as-scene") && text.contains("as-symbolic"),
        "{text}"
    );

    drop(client);
    server.stop();
}

#[test]
fn concurrent_clients_mixed_traffic() {
    let server = RunningServer::start(test_config());
    let addr = server.addr;

    let workers: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                let mut client = Client::new(addr, Duration::from_secs(10));
                let mut ok = 0usize;
                for i in 0..25 {
                    let name = format!("w{w}-{i}");
                    let insert = format!(r#"{{"name":{name:?},"scene":{LEFT_SCENE}}}"#);
                    let response = client.request("POST", "/v1/images", &insert).unwrap();
                    assert_eq!(response.status, 201);
                    let search = format!(r#"{{"scene":{LEFT_SCENE},"options":{{"top_k":3}}}}"#);
                    let response = client.request("POST", "/v1/search", &search).unwrap();
                    assert_eq!(response.status, 200);
                    ok += 2;
                }
                ok
            })
        })
        .collect();
    let total: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert_eq!(total, 200);

    let mut client = server.client();
    let response = client.request("GET", "/v1/stats", "").unwrap();
    let text = response.text();
    assert!(text.contains("\"records\":100"), "{text}");
    assert!(text.contains("\"inserts\":100"), "{text}");

    drop(client);
    server.stop();
}

/// Replica fault injection over the wire: a replicated server keeps
/// answering searches while one replica per shard is failed, and the
/// healed replicas serve identical results afterwards.
#[test]
fn replica_fail_heal_over_the_wire() {
    let server = RunningServer::start(ServerConfig {
        shards: 2,
        replicas: 2,
        ..test_config()
    });
    let mut client = server.client();

    for (name, scene) in [("left", LEFT_SCENE), ("right", RIGHT_SCENE)] {
        let response = client
            .request(
                "POST",
                "/v1/images",
                &format!(r#"{{"name":{name:?},"scene":{scene}}}"#),
            )
            .unwrap();
        assert_eq!(response.status, 201);
    }
    let search_body = format!(r#"{{"scene":{LEFT_SCENE},"options":{{"top_k":2}}}}"#);
    let baseline = client
        .request("POST", "/v1/search", &search_body)
        .unwrap()
        .text();

    // Stats advertise the replicated topology.
    let stats = client.request("GET", "/v1/stats", "").unwrap().text();
    assert!(stats.contains("\"shards\":2"), "{stats}");
    assert!(stats.contains("\"replicas\":2"), "{stats}");
    assert!(
        stats.contains("\"replica_health\":[[true,true],[true,true]]"),
        "{stats}"
    );

    // Fail one replica per shard; every search must still answer, and
    // identically (repeat so the round-robin picker cycles).
    for body in [r#"{"shard":0,"replica":1}"#, r#"{"shard":1,"replica":0}"#] {
        let response = client
            .request("POST", "/v1/admin/replicas/fail", body)
            .unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
    }
    for _ in 0..6 {
        let response = client.request("POST", "/v1/search", &search_body).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.text(), baseline, "degraded search identical");
    }
    // Writes while degraded land on the survivors only. (A duplicate of
    // "right" ties below it by id, so the top-2 baseline is unchanged.)
    let response = client
        .request(
            "POST",
            "/v1/images",
            &format!(r#"{{"name":"degraded","scene":{RIGHT_SCENE}}}"#),
        )
        .unwrap();
    assert_eq!(response.status, 201);

    // Failing the last healthy copy is refused with 409.
    let response = client
        .request(
            "POST",
            "/v1/admin/replicas/fail",
            r#"{"shard":0,"replica":0}"#,
        )
        .unwrap();
    assert_eq!(response.status, 409, "{}", response.text());

    // Heal both; the rebuilt replicas rejoin with identical state.
    for body in [r#"{"shard":0,"replica":1}"#, r#"{"shard":1,"replica":0}"#] {
        let response = client
            .request("POST", "/v1/admin/replicas/heal", body)
            .unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
    }
    let stats = client.request("GET", "/v1/stats", "").unwrap().text();
    assert!(
        stats.contains("\"replica_health\":[[true,true],[true,true]]"),
        "{stats}"
    );
    assert!(stats.contains("\"records\":3"), "{stats}");
    for _ in 0..6 {
        let response = client.request("POST", "/v1/search", &search_body).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.text(), baseline, "healed search identical");
    }

    drop(client);
    server.stop();
}

/// `POST /admin/reshard` over the wire: the migration runs in the
/// background while searches keep answering identically, `/v1/stats`
/// reports the progress trajectory, and conflicting requests are
/// rejected with the right statuses.
#[test]
fn online_reshard_over_the_wire() {
    let server = RunningServer::start(ServerConfig {
        shards: 2,
        replicas: 2,
        reshard_batch: 4,
        ..test_config()
    });
    let mut client = server.client();

    for i in 0..20 {
        let scene = if i % 2 == 0 { LEFT_SCENE } else { RIGHT_SCENE };
        let response = client
            .request(
                "POST",
                "/v1/images",
                &format!(r#"{{"name":"img-{i}","scene":{scene}}}"#),
            )
            .unwrap();
        assert_eq!(response.status, 201);
    }
    let search_body = format!(r#"{{"scene":{LEFT_SCENE},"options":{{"top_k":null}}}}"#);
    let baseline = client
        .request("POST", "/v1/search", &search_body)
        .unwrap()
        .text();

    // Bad targets first: 400 for zero, 200 no-op for the same count.
    let response = client
        .request("POST", "/v1/admin/reshard", r#"{"shards":0}"#)
        .unwrap();
    assert_eq!(response.status, 400, "{}", response.text());
    let response = client
        .request("POST", "/v1/admin/reshard", r#"{"shards":2}"#)
        .unwrap();
    assert_eq!(response.status, 200);
    assert!(response.text().contains("\"started\":false"));

    // Grow 2 → 5 in the background; searches during the migration stay
    // byte-identical to the pre-reshard baseline.
    let response = client
        .request("POST", "/v1/admin/reshard", r#"{"shards":5,"batch":3}"#)
        .unwrap();
    assert_eq!(response.status, 202, "{}", response.text());
    assert!(
        response.text().contains("\"from\":2"),
        "{}",
        response.text()
    );
    assert!(response.text().contains("\"to\":5"), "{}", response.text());

    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let response = client.request("POST", "/v1/search", &search_body).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.text(), baseline, "mid-reshard search identical");
        let stats = client.request("GET", "/v1/stats", "").unwrap().text();
        if stats.contains("\"reshard\":{\"active\":false") && stats.contains("\"shards\":5") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "reshard never finished: {stats}"
        );
    }

    let stats = client.request("GET", "/v1/stats", "").unwrap().text();
    assert!(stats.contains("\"shards\":5"), "{stats}");
    assert!(stats.contains("\"replicas\":2"), "{stats}");
    assert!(
        stats.contains("\"reshard\":{\"active\":false,\"from\":2,\"to\":5,\"migrated_ids\":20,"),
        "{stats}"
    );
    assert!(stats.contains("\"records\":20"), "{stats}");
    assert!(
        stats.contains(
            "\"replica_health\":[[true,true],[true,true],[true,true],[true,true],[true,true]]"
        ),
        "{stats}"
    );

    // Post-migration: identical ranking, writes still live, and the
    // replica admin API addresses the new shards.
    let response = client.request("POST", "/v1/search", &search_body).unwrap();
    assert_eq!(response.text(), baseline, "post-reshard search identical");
    let response = client
        .request(
            "POST",
            "/v1/images",
            &format!(r#"{{"name":"after","scene":{LEFT_SCENE}}}"#),
        )
        .unwrap();
    assert_eq!(response.status, 201);
    assert!(response.text().contains("\"id\":20"), "{}", response.text());
    let response = client
        .request(
            "POST",
            "/v1/admin/replicas/fail",
            r#"{"shard":4,"replica":1}"#,
        )
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    let response = client
        .request(
            "POST",
            "/v1/admin/replicas/heal",
            r#"{"shard":4,"replica":1}"#,
        )
        .unwrap();
    assert_eq!(response.status, 200);

    drop(client);
    server.stop();
}

/// One API version over the wire: unversioned paths are gone (404 with
/// the coded error envelope), the liveness probe answers on both
/// `/healthz` and `/v1/healthz`, and `/v1` errors share the envelope.
#[test]
fn only_v1_and_healthz_answer_over_the_wire() {
    let server = RunningServer::start(test_config());
    let mut client = server.client();

    let response = client
        .request(
            "POST",
            "/v1/images",
            &format!(r#"{{"name":"left","scene":{LEFT_SCENE}}}"#),
        )
        .unwrap();
    assert_eq!(response.status, 201, "{}", response.text());

    let search_body = format!(r#"{{"scene":{LEFT_SCENE},"options":{{"top_k":1}}}}"#);
    let scene_body = format!(r#"{{"name":"left","scene":{LEFT_SCENE}}}"#);
    for (method, path, body) in [
        ("POST", "/search", search_body.as_str()),
        ("POST", "/images", scene_body.as_str()),
        ("DELETE", "/images/0", ""),
        ("GET", "/stats", ""),
    ] {
        let response = client.request(method, path, body).unwrap();
        assert_eq!(response.status, 404, "{method} {path}");
        let text = response.text();
        assert!(
            text.contains("\"code\":\"not_found\""),
            "{method} {path}: {text}"
        );
        assert!(
            text.contains("\"retryable\":false"),
            "{method} {path}: {text}"
        );
    }
    // The unversioned delete above never reached the database.
    let response = client.request("POST", "/v1/search", &search_body).unwrap();
    assert_eq!(response.status, 200);
    assert!(response.text().contains("\"name\":\"left\""));

    for path in ["/healthz", "/v1/healthz"] {
        let health = client.request("GET", path, "").unwrap();
        assert_eq!(health.status, 200, "{path}");
        assert!(health.text().contains("\"status\":\"ok\""), "{path}");
    }

    // Errors carry the coded envelope.
    let missing = client.request("DELETE", "/v1/images/99", "").unwrap();
    assert_eq!(missing.status, 404);
    let text = missing.text();
    assert!(text.contains("\"code\":\"unknown_record\""), "{text}");
    assert!(text.contains("\"retryable\":false"), "{text}");
    let bad = client.request("POST", "/v1/search", "{not json").unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.text().contains("\"code\":"), "{}", bad.text());
    let unknown = client.request("GET", "/v1/nope", "").unwrap();
    assert_eq!(unknown.status, 404);
    assert!(
        unknown.text().contains("\"code\":\"not_found\""),
        "{}",
        unknown.text()
    );

    drop(client);
    server.stop();
}

/// `GET /v1/stats` reports the nested shape — topology, replication
/// with per-replica lag, op log.
#[test]
fn stats_v1_is_nested() {
    let server = RunningServer::start(ServerConfig {
        shards: 2,
        replicas: 2,
        ..test_config()
    });
    let mut client = server.client();
    for i in 0..4 {
        let response = client
            .request(
                "POST",
                "/v1/images",
                &format!(r#"{{"name":"img-{i}","scene":{LEFT_SCENE}}}"#),
            )
            .unwrap();
        assert_eq!(response.status, 201);
    }

    let v1 = client.request("GET", "/v1/stats", "").unwrap();
    assert_eq!(v1.status, 200);
    let text = v1.text();
    assert!(text.contains("\"topology\":{"), "{text}");
    assert!(text.contains("\"replication\":{"), "{text}");
    assert!(text.contains("\"mode\":\"sync\""), "{text}");
    assert!(text.contains("\"last_applied_seq\""), "{text}");
    assert!(text.contains("\"lag\":0"), "{text}");
    assert!(text.contains("\"oplog\":{"), "{text}");
    assert!(text.contains("\"service\":{"), "{text}");
    assert!(text.contains("\"records\":4"), "{text}");
    assert!(!text.contains("\"reshard_active\""), "no flat keys: {text}");

    drop(client);
    server.stop();
}

/// Async replication over the wire: writes ack at the leader, the
/// background pump drains followers, a failed-then-healed replica
/// catches up by op-log replay (visible in `/v1/stats`), and searches
/// stay byte-identical throughout.
#[test]
fn async_replication_catchup_over_the_wire() {
    use be2d_db::ReplicationMode;
    let server = RunningServer::start(ServerConfig {
        shards: 2,
        replicas: 2,
        replication: ReplicationMode::Async { max_lag: 64 },
        oplog_window: 1024,
        ..test_config()
    });
    let mut client = server.client();

    for i in 0..6 {
        let scene = if i % 2 == 0 { LEFT_SCENE } else { RIGHT_SCENE };
        let response = client
            .request(
                "POST",
                "/v1/images",
                &format!(r#"{{"name":"img-{i}","scene":{scene}}}"#),
            )
            .unwrap();
        assert_eq!(response.status, 201);
    }
    let search_body = format!(r#"{{"scene":{LEFT_SCENE},"options":{{"top_k":3}}}}"#);
    let baseline = client
        .request("POST", "/v1/search", &search_body)
        .unwrap()
        .text();

    // Fail a replica, write through the gap, heal: the gap fits the
    // op-log window, so the heal must replay, not clone.
    let response = client
        .request(
            "POST",
            "/v1/admin/replicas/fail",
            r#"{"shard":0,"replica":1}"#,
        )
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    for i in 6..12 {
        let response = client
            .request(
                "POST",
                "/v1/images",
                &format!(r#"{{"name":"img-{i}","scene":{LEFT_SCENE}}}"#),
            )
            .unwrap();
        assert_eq!(response.status, 201);
    }
    let response = client
        .request(
            "POST",
            "/v1/admin/replicas/heal",
            r#"{"shard":0,"replica":1}"#,
        )
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.text());

    let stats = client.request("GET", "/v1/stats", "").unwrap().text();
    assert!(stats.contains("\"mode\":\"async\""), "{stats}");
    assert!(stats.contains("\"max_lag\":64"), "{stats}");
    assert!(!stats.contains("\"catchup_replays\":0"), "{stats}");
    assert!(stats.contains("\"catchup_clones\":0"), "{stats}");

    // Everything drained: healed replica serves identical rankings.
    for _ in 0..6 {
        let response = client.request("POST", "/v1/search", &search_body).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.text(), baseline, "healed async search identical");
    }

    drop(client);
    server.stop();
}

/// Keep-alive budget exhaustion closes politely; the client reconnects.
#[test]
fn keep_alive_budget_rolls_over() {
    let server = RunningServer::start(ServerConfig {
        keep_alive_requests: 3,
        ..test_config()
    });
    let mut client = server.client();
    for _ in 0..10 {
        let response = client.request("GET", "/healthz", "").unwrap();
        assert_eq!(response.status, 200);
    }
    drop(client);
    server.stop();
}
