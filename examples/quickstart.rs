//! Quickstart: the paper's running example (Figs. 2 and 3).
//!
//! Two users share two account balances. One runs the `XferTrans`
//! transaction transferring between them; a `BalanceView` at the other site
//! first shows the tentative value "in red" (optimistic update
//! notification) and then "in black" once the transfer commits.
//!
//! Run with: `cargo run -p decaf-apps --example quickstart`

use decaf_core::{ObjectName, Transaction, TxnCtx, TxnError, UpdateNotification, View, ViewMode};
use decaf_net::sim::{LatencyModel, SimTime};
use decaf_vt::SiteId;
use decaf_workload::SimWorld;

/// The paper's Fig. 2: transfer `amount` from one balance to the other,
/// aborting (without retry) on overdraft.
struct XferTrans {
    from: ObjectName,
    to: ObjectName,
    amount: f64,
}

impl Transaction for XferTrans {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        let a = ctx.read_real(self.from)?;
        if a - self.amount < 0.0 {
            return Err(TxnError::app("can't transfer more than balance"));
        }
        let b = ctx.read_real(self.to)?;
        ctx.write_real(self.from, a - self.amount)?;
        ctx.write_real(self.to, b + self.amount)?;
        Ok(())
    }

    fn handle_abort(&mut self, reason: &decaf_core::AbortReason) {
        println!("  !! transfer aborted: {reason}");
    }
}

/// The paper's Fig. 3: a balance display that renders tentatively in red
/// and committed in black.
struct BalanceView {
    label: &'static str,
    balance: ObjectName,
}

impl View for BalanceView {
    fn update(&mut self, n: &UpdateNotification<'_>) {
        if let Ok(v) = n.read_real(self.balance) {
            println!("  [{}] balance = {v:>8.2}   (red: tentative)", self.label);
        }
    }
    fn commit(&mut self) {
        println!("  [{}] last shown value COMMITTED (black)", self.label);
    }
}

fn main() {
    println!("DECAF quickstart: two sites, 40 ms network latency\n");
    let mut world = SimWorld::new(2, LatencyModel::uniform(SimTime::from_millis(40)));

    // Each site holds replicas of two account balances.
    let account_a = world.wire_int(0); // placeholder ints not used; reals below
    let _ = account_a;
    // Reals: create + wire manually.
    let a1 = world.site(SiteId(1)).create_real(500.0);
    let a2 = world.site(SiteId(2)).create_real(500.0);
    let b1 = world.site(SiteId(1)).create_real(100.0);
    let b2 = world.site(SiteId(2)).create_real(100.0);
    {
        let mut iter = world.sites_mut();
        let s1 = iter.next().expect("site 1");
        let s2 = iter.next().expect("site 2");
        decaf_core::wiring::wire_pair(s1, a1, s2, a2);
        decaf_core::wiring::wire_pair(s1, b1, s2, b2);
    }

    // The remote user (site 1) watches account B optimistically.
    world.site(SiteId(1)).attach_view(
        Box::new(BalanceView {
            label: "site1 viewer",
            balance: b1,
        }),
        &[b1],
        ViewMode::Optimistic,
    );

    println!("site 2 transfers 150.00 from A to B:");
    world.site(SiteId(2)).execute(Box::new(XferTrans {
        from: a2,
        to: b2,
        amount: 150.0,
    }));
    world.run_to_quiescence();

    println!("\nfinal committed state:");
    for (site, a, b) in [(SiteId(1), a1, b1), (SiteId(2), a2, b2)] {
        println!(
            "  {site}: A = {:?}, B = {:?}",
            world.site(site).read_real_committed(a).expect("committed"),
            world.site(site).read_real_committed(b).expect("committed"),
        );
    }

    println!("\nsite 2 now tries to transfer 10,000.00 (overdraft):");
    world.site(SiteId(2)).execute(Box::new(XferTrans {
        from: a2,
        to: b2,
        amount: 10_000.0,
    }));
    world.run_to_quiescence();
    println!(
        "  state unchanged: A = {:?} at both sites",
        world
            .site(SiteId(1))
            .read_real_committed(a1)
            .expect("committed"),
    );

    let s1 = world.site(SiteId(1)).stats();
    println!("\nsite 1 stats: {s1}");
}
