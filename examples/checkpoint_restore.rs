//! Persistence and recovery (§5.3): checkpoint a collaborative session to
//! bytes (the binary encoding the write-ahead log stores), "crash", restore,
//! and keep collaborating with the membership intact.
//!
//! Run with: `cargo run -p decaf-apps --example checkpoint_restore`

use decaf_core::{wiring, Checkpoint, ObjectName, Site, Transaction, TxnCtx, TxnError};
use decaf_vt::SiteId;

struct Add(ObjectName, i64);
impl Transaction for Add {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        let v = ctx.read_int(self.0)?;
        ctx.write_int(self.0, v + self.1)
    }
}

fn main() {
    println!("Checkpoint & restore demo\n");
    let mut a = Site::new(SiteId(1));
    let mut b = Site::new(SiteId(2));
    let oa = a.create_int(0);
    let ob = b.create_int(0);
    wiring::wire_pair(&mut a, oa, &mut b, ob);

    for _ in 0..3 {
        a.execute(Box::new(Add(oa, 10)));
        wiring::run_to_quiescence(&mut [&mut a, &mut b]);
    }
    println!(
        "after three updates: site1 = {:?}, site2 = {:?}",
        a.read_int_committed(oa),
        b.read_int_committed(ob)
    );

    // Site 2 checkpoints — the durable state a persistence store would
    // write (`CommitLog::append_checkpoint` frames exactly these bytes).
    let cp = b.checkpoint().expect("quiescent");
    let bytes = cp.to_bytes();
    println!(
        "\nsite 2 checkpointed: {} bytes ({} objects)",
        bytes.len(),
        cp.object_count(),
    );
    println!("checkpoint head: {:02x?}", &bytes[..bytes.len().min(24)]);

    // Crash...
    drop(b);
    println!("\nsite 2 'crashed'. restoring from the checkpoint...");
    let decoded = Checkpoint::from_bytes(&bytes).expect("own bytes decode");
    let mut b = Site::restore(decoded);
    println!(
        "restored site 2 reads {:?} with a {}-member replication graph",
        b.read_int_committed(ob),
        b.replication_graph(ob).expect("graph").len()
    );

    // Collaboration resumes transparently (the survivors never repaired it
    // away, so its membership is intact).
    b.execute(Box::new(Add(ob, 12)));
    wiring::run_to_quiescence(&mut [&mut a, &mut b]);
    println!(
        "\nafter a post-restore update: site1 = {:?}, site2 = {:?}",
        a.read_int_committed(oa),
        b.read_int_committed(ob)
    );
    assert_eq!(a.read_int_committed(oa), Some(42));
    assert_eq!(b.read_int_committed(ob), Some(42));
    println!("\nboth replicas agree at 42 — recovery complete.");
}
