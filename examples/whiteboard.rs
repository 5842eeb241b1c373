//! Collaborative whiteboard: the paper's blind-write workload (§5.1.2).
//!
//! Three users draw strokes concurrently onto a shared whiteboard — a
//! replicated list of stroke tuples. All operations are blind appends, so
//! "concurrency control tests never fail": no rollbacks, ever. Optimistic
//! views render instantly; straggling strokes may be *lost updates* for the
//! view (they are still in the committed board).
//!
//! Run with: `cargo run -p decaf-apps --example whiteboard`

use decaf_core::{
    Blueprint, ObjectName, Site, Transaction, TxnCtx, TxnError, UpdateNotification, View, ViewMode,
};
use decaf_net::sim::{LatencyModel, SimTime};
use decaf_vt::SiteId;
use decaf_workload::{ArrivalProcess, SimWorld, WorldStep};

/// Draw one stroke: append a `{color, x, y}` tuple to the board.
struct DrawStroke {
    board: ObjectName,
    color: &'static str,
    x: i64,
    y: i64,
}

impl Transaction for DrawStroke {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        ctx.list_push(
            self.board,
            Blueprint::Tuple(vec![
                ("color".into(), Blueprint::str(self.color)),
                ("x".into(), Blueprint::Int(self.x)),
                ("y".into(), Blueprint::Int(self.y)),
            ]),
        )?;
        Ok(())
    }
}

/// A renderer that just counts what it would draw.
struct BoardView {
    user: &'static str,
    board: ObjectName,
    renders: u64,
}

impl View for BoardView {
    fn update(&mut self, n: &UpdateNotification<'_>) {
        self.renders += 1;
        if let Ok(strokes) = n.read_list(self.board) {
            if self.renders.is_multiple_of(25) {
                println!(
                    "  [{}] re-render #{} with {} strokes",
                    self.user,
                    self.renders,
                    strokes.len()
                );
            }
        }
    }
}

const USERS: [(&str, &str); 3] = [("ann", "red"), ("bob", "blue"), ("cid", "green")];

fn main() {
    println!("Collaborative whiteboard: 3 users, 60 ms latency, 30 s of drawing\n");
    let mut world = SimWorld::new(3, LatencyModel::uniform(SimTime::from_millis(60)));

    // One board replica per site, wired together.
    let boards: Vec<ObjectName> = world.sites_mut().map(Site::create_list).collect();
    {
        let mut parts: Vec<(&mut Site, ObjectName)> =
            world.sites_mut().zip(boards.iter().copied()).collect();
        decaf_core::wiring::wire_replicas(&mut parts);
    }
    for (i, (user, _)) in USERS.iter().enumerate() {
        let site = SiteId(i as u32 + 1);
        let board = boards[i];
        world.site(site).attach_view(
            Box::new(BoardView {
                user,
                board,
                renders: 0,
            }),
            &[board],
            ViewMode::Optimistic,
        );
    }

    // Each user draws with Poisson-distributed gestures, ~2 strokes/s.
    let mut arrivals: Vec<ArrivalProcess> = (0..3)
        .map(|i| ArrivalProcess::poisson(2.0, 7 + i as u64))
        .collect();
    for i in 0..3u32 {
        let d = arrivals[i as usize].next_delay();
        world.set_timer(SiteId(i + 1), d, 0);
    }

    let deadline = SimTime::from_secs(30);
    let mut strokes = 0i64;
    while let Some(step) = world.step() {
        if world.now() > deadline {
            break;
        }
        if let WorldStep::Timer { site, .. } = step {
            let idx = (site.0 - 1) as usize;
            strokes += 1;
            let color = USERS[idx].1;
            world.site(site).execute(Box::new(DrawStroke {
                board: boards[idx],
                color,
                x: (strokes * 17) % 800,
                y: (strokes * 31) % 600,
            }));
            let d = arrivals[idx].next_delay();
            world.set_timer(site, d, 0);
        }
    }
    world.run_to_quiescence();

    println!("\nafter quiescence:");
    for (i, (user, _)) in USERS.iter().enumerate() {
        let site = SiteId(i as u32 + 1);
        let count = world.site(site).list_children_current(boards[i]).len();
        println!("  {user}'s board shows {count} strokes");
    }
    let total = world.total_stats();
    println!("\ntotals: {total}");
    println!(
        "blind writes: {} rollbacks (the paper predicts zero), {} lost view updates",
        total.txns_aborted_conflict, total.lost_updates
    );
    assert_eq!(total.txns_aborted_conflict, 0);
}
