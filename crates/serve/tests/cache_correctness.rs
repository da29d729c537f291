//! Cache-correctness tests: least-reused eviction, staleness after
//! program re-registration, and explicit fingerprint-collision coverage,
//! all through the public server API.

use std::sync::Arc;

use flashram_minicc::{compile_program, OptLevel, SourceUnit};
use flashram_serve::workload::{check_equivalence, reference_response, reference_session};
use flashram_serve::{PlacementServer, Query, Request, ServerConfig};

/// A kernel with a hot loop in a helper; `extra` pads the loop body with
/// additional statements, changing block sizes and hence the optimal
/// placement — so two `program()`s with different `extra` have genuinely
/// different optima (asserted below).
fn program(extra: usize) -> Arc<flashram_ir::MachineProgram> {
    let padding: String = (0..extra).map(|k| format!("s += i * {k}; ")).collect();
    let src = format!(
        "
        int helper(int n) {{
            int s = 0;
            for (int i = 0; i < n; i++) {{
                {padding}
                if (i % 3 == 0) {{ s += i * 2; }} else {{ s -= i; }}
            }}
            return s;
        }}
        int cold(int n) {{
            int s = 1;
            for (int i = 0; i < n; i++) {{ s = s * 3 + i; }}
            return s;
        }}
        int main() {{ return helper(50) + cold(7); }}
        "
    );
    Arc::new(compile_program(&[SourceUnit::application(&src)], OptLevel::O1).expect("compiles"))
}

fn point(program: &str, budget: u32) -> Request {
    Request::point(program, "stm32f100", budget, 1.5)
}

#[test]
fn re_registering_a_name_never_serves_a_stale_placement() {
    let server = PlacementServer::new(ServerConfig {
        workers: 2,
        cache_capacity: 4,
        ..ServerConfig::default()
    });
    let old = program(1);
    let new = program(12);
    server.register_program("app", Arc::clone(&old));
    let before = server.solve(point("app", 96)).expect("solvable");

    // Same name, different contents: the cached session of the old
    // contents must not answer for the new ones.
    server.register_program("app", Arc::clone(&new));
    let after = server.solve(point("app", 96)).expect("solvable");

    let mut reference =
        reference_session(&new, "stm32f100", Default::default(), None).expect("reference session");
    let expected = reference_response(
        &mut reference,
        &Query::Point {
            r_spare: 96,
            x_limit: 1.5,
        },
    )
    .expect("reference solve");
    assert!(
        check_equivalence(&expected, after.outcome, &after.points).is_none(),
        "post-re-registration answer must match a fresh solve of the new contents"
    );
    assert!(
        !after.session_hit,
        "new contents have a new fingerprint: they cannot hit the old session"
    );
    assert_ne!(
        before.points[0].objective.to_bits(),
        after.points[0].objective.to_bits(),
        "sanity: the two programs genuinely have different optima, so a \
         stale answer would have been detectable"
    );

    // And the old contents, re-registered again, still answer like the old
    // contents (its cached session is intact, not poisoned).
    server.register_program("app", Arc::clone(&old));
    let revived = server.solve(point("app", 96)).expect("solvable");
    assert!(revived.session_hit, "the old session is still cached");
    assert_eq!(
        revived.points[0].objective.to_bits(),
        before.points[0].objective.to_bits()
    );
    server.shutdown();
}

#[test]
fn colliding_fingerprints_coexist_and_answer_correctly() {
    // Force every program onto the same fingerprint: the cache must fall
    // back to deep content comparison and keep one entry per program.
    let server = PlacementServer::new(ServerConfig {
        workers: 2,
        cache_capacity: 8,
        fingerprint: |_| 7,
        ..ServerConfig::default()
    });
    let a = program(1);
    let b = program(12);
    server.register_program("a", Arc::clone(&a));
    server.register_program("b", Arc::clone(&b));

    let ra = server.solve(point("a", 96)).expect("solvable");
    let rb = server.solve(point("b", 96)).expect("solvable");
    assert_ne!(
        ra.points[0].objective.to_bits(),
        rb.points[0].objective.to_bits(),
        "collided entries must not share answers"
    );
    for (prog, response) in [(&a, &ra), (&b, &rb)] {
        let mut reference = reference_session(prog, "stm32f100", Default::default(), None)
            .expect("reference session");
        let expected = reference_response(
            &mut reference,
            &Query::Point {
                r_spare: 96,
                x_limit: 1.5,
            },
        )
        .expect("reference solve");
        assert!(check_equivalence(&expected, response.outcome, &response.points).is_none());
    }
    // Repeats still hit their own entry.
    let ra2 = server.solve(point("a", 96)).expect("solvable");
    assert!(ra2.session_hit && ra2.memo_hit);
    assert_eq!(
        ra.points[0].objective.to_bits(),
        ra2.points[0].objective.to_bits()
    );

    let stats = server.shutdown();
    assert!(
        stats.cache.collisions > 0,
        "the collision path must actually have been exercised"
    );
    assert_eq!(stats.errors, 0);
}

/// A one-worker server with room for two idle sessions, serving `p0`,
/// `p1` and `p2` — three programs with different optima.
fn two_session_server() -> PlacementServer {
    let server = PlacementServer::new(ServerConfig {
        workers: 1,
        cache_capacity: 2,
        ..ServerConfig::default()
    });
    for (i, extra) in [1, 6, 12].into_iter().enumerate() {
        server.register_program(&format!("p{i}"), program(extra));
    }
    server
}

#[test]
fn least_reused_eviction_is_observable_and_never_wrong() {
    // A hot program keeps its session and memo while one-off programs
    // pass through: the second one-off evicts the first (never reused),
    // not the hot session, as evicting the least recently used would.
    let server = two_session_server();
    let hot = server.solve(point("p0", 64)).expect("solvable");
    let repeat = server.solve(point("p0", 64)).expect("solvable");
    assert!(repeat.session_hit && repeat.memo_hit);
    for one_off in ["p1", "p2"] {
        let response = server.solve(point(one_off, 64)).expect("solvable");
        assert!(!response.session_hit);
    }
    let again = server.solve(point("p0", 64)).expect("solvable");
    assert!(
        again.session_hit && again.memo_hit,
        "one-off programs must not push out the hot session"
    );
    assert_eq!(
        hot.points[0].objective.to_bits(),
        again.points[0].objective.to_bits()
    );
    assert_eq!(server.shutdown().cache.evictions, 1);

    let server = two_session_server();
    // Fill the cache (p0, p1), then insert p2: neither resident was
    // reused, so the least recently used (p0) is evicted.  Querying p0
    // again must rebuild and still be exact.
    let first: Vec<_> = (0..3)
        .map(|i| server.solve(point(&format!("p{i}"), 64)).expect("solvable"))
        .collect();
    let again = server.solve(point("p0", 64)).expect("solvable");
    assert!(
        !again.session_hit,
        "p0 was evicted, so its session must have been rebuilt"
    );
    assert_eq!(
        first[0].points[0].objective.to_bits(),
        again.points[0].objective.to_bits(),
        "an evicted-and-rebuilt session answers bit-identically"
    );
    assert_eq!(first[0].points[0].selected, again.points[0].selected);

    let stats = server.shutdown();
    assert!(
        stats.cache.evictions >= 1,
        "capacity 2 with 3 programs evicts"
    );
    assert_eq!(stats.errors, 0);
    // Monotone counters: every admission is exactly one hit or miss.
    assert_eq!(
        stats.cache.hits + stats.cache.misses,
        stats.submitted,
        "one cache lookup per admission"
    );
}
