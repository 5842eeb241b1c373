//! Collaborative form filling: the paper's motivating application.
//!
//! "Several groupware applications that allow an insurance agent to help
//! clients understand insurance products via data visualization and to fill
//! out insurance forms" were built on DECAF (§5.2.1). Here an agent and a
//! client edit an insurance form — a replicated tuple of fields — while
//!
//! * the client's GUI watches **optimistically** (instant feedback), and
//! * the agent's audit trail watches **pessimistically**: it records every
//!   committed form state, losslessly and in order, never seeing tentative
//!   values.
//!
//! Run with: `cargo run -p decaf-apps --example insurance_form`

use decaf_core::{
    Blueprint, ObjectName, Transaction, TxnCtx, TxnError, UpdateNotification, View, ViewMode,
};
use decaf_net::sim::{LatencyModel, SimTime};
use decaf_vt::SiteId;
use decaf_workload::SimWorld;

/// Sets a string field of the form.
struct FillField {
    form: ObjectName,
    field: &'static str,
    value: &'static str,
}

impl Transaction for FillField {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        match ctx.tuple_get(self.form, self.field)? {
            Some(existing) => ctx.write_str(existing, self.value),
            None => {
                ctx.tuple_put(self.form, self.field, Blueprint::str(self.value))?;
                Ok(())
            }
        }
    }
}

/// Computes the premium from the coverage field (reads one field, writes
/// another — a read-write transaction that can conflict and retry).
struct Reprice {
    form: ObjectName,
}

impl Transaction for Reprice {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        let coverage = match ctx.tuple_get(self.form, "coverage")? {
            Some(c) => ctx.read_str(c)?,
            None => return Err(TxnError::app("no coverage chosen yet")),
        };
        let premium = match coverage.as_str() {
            "basic" => "120.00",
            "full" => "340.00",
            other => return Err(TxnError::app(format!("unknown coverage {other}"))),
        };
        match ctx.tuple_get(self.form, "premium")? {
            Some(p) => ctx.write_str(p, premium),
            None => {
                ctx.tuple_put(self.form, "premium", Blueprint::str(premium))?;
                Ok(())
            }
        }
    }
}

/// The client's screen: optimistic, immediate.
struct ClientScreen {
    form: ObjectName,
}

impl View for ClientScreen {
    fn update(&mut self, n: &UpdateNotification<'_>) {
        let fields = n.read_tuple(self.form).unwrap_or_default();
        let mut parts = Vec::new();
        for (k, child) in fields {
            if let Ok(v) = n.read_str(child) {
                parts.push(format!("{k}={v}"));
            }
        }
        println!("  [client screen]  {}", parts.join("  "));
    }
    fn commit(&mut self) {
        println!("  [client screen]  (all shown values committed)");
    }
}

/// The agent's audit log: pessimistic, lossless, committed-only.
struct AuditTrail {
    form: ObjectName,
    entries: u64,
}

impl View for AuditTrail {
    fn update(&mut self, n: &UpdateNotification<'_>) {
        self.entries += 1;
        let fields = n.read_tuple(self.form).unwrap_or_default();
        let mut parts = Vec::new();
        for (k, child) in fields {
            if let Ok(v) = n.read_str(child) {
                parts.push(format!("{k}={v}"));
            }
        }
        println!("  [audit #{:02}]      {}", self.entries, parts.join("  "));
    }
}

fn main() {
    println!("Insurance form: agent (site 1) + client (site 2), 30 ms latency\n");
    let mut world = SimWorld::new(2, LatencyModel::uniform(SimTime::from_millis(30)));
    let form1 = world.site(SiteId(1)).create_tuple();
    let form2 = world.site(SiteId(2)).create_tuple();
    {
        let mut iter = world.sites_mut();
        let s1 = iter.next().expect("site 1");
        let s2 = iter.next().expect("site 2");
        decaf_core::wiring::wire_pair(s1, form1, s2, form2);
    }

    world.site(SiteId(2)).attach_view(
        Box::new(ClientScreen { form: form2 }),
        &[form2],
        ViewMode::Optimistic,
    );
    world.site(SiteId(1)).attach_view(
        Box::new(AuditTrail {
            form: form1,
            entries: 0,
        }),
        &[form1],
        ViewMode::Pessimistic,
    );

    println!("client fills in their name:");
    world.site(SiteId(2)).execute(Box::new(FillField {
        form: form2,
        field: "name",
        value: "Jane Doe",
    }));
    world.run_to_quiescence();

    println!("\nagent selects full coverage and reprices (one atomic flow):");
    world.site(SiteId(1)).execute(Box::new(FillField {
        form: form1,
        field: "coverage",
        value: "full",
    }));
    world
        .site(SiteId(1))
        .execute(Box::new(Reprice { form: form1 }));
    world.run_to_quiescence();

    println!("\nclient downgrades to basic; agent reprices concurrently:");
    world.site(SiteId(2)).execute(Box::new(FillField {
        form: form2,
        field: "coverage",
        value: "basic",
    }));
    world
        .site(SiteId(1))
        .execute(Box::new(Reprice { form: form1 }));
    world.run_to_quiescence();

    println!("\nfinal committed form at both sites:");
    for (label, site, form) in [("agent", SiteId(1), form1), ("client", SiteId(2), form2)] {
        let fields = world.site(site).tuple_children_current(form);
        let mut parts = Vec::new();
        for (k, child) in fields {
            if let Some(v) = world.site(site).read_str_committed(child) {
                parts.push(format!("{k}={v}"));
            }
        }
        println!("  {label}: {}", parts.join("  "));
    }
    let totals = world.total_stats();
    println!("\ntotals: {totals}");
}
