//! Flat transistor-level netlists.
//!
//! Full circuits (the decoder tree, carry chains, multi-gate paths) are
//! captured as a flat netlist of transistors, wires and capacitors over
//! named nets. The STA front end partitions a netlist into logic stages
//! (channel-connected components — see [`crate::partition`]) because "not
//! every design cell created by designers maps naturally to a logic
//! stage" (paper §I): stages must be constructed dynamically from the
//! connectivity.
//!
//! Storage is flat: net names are interned in one arena behind a
//! `NameIndex`, per-net data (name,
//! explicit capacitance, primary-I/O flags) is one dense table indexed
//! by [`NetId`], and device names get an index of their own. Adding a
//! net or a device allocates nothing beyond amortized table growth and
//! the device's own name.

use crate::intern::{name_at, name_hash, push_name, NameIndex, Span};
use crate::stage::DeviceKind;
use qwm_device::model::Geometry;
use qwm_num::{NumError, Result};

/// Index of a net within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub usize);

/// A transistor or wire instance.
#[derive(Debug, Clone)]
pub struct NetDevice {
    /// Instance name (e.g. `M1`).
    pub name: String,
    /// Element kind.
    pub kind: DeviceKind,
    /// Gate net (`None` for wires).
    pub gate: Option<NetId>,
    /// First channel terminal.
    pub src: NetId,
    /// Second channel terminal.
    pub snk: NetId,
    /// Geometry.
    pub geom: Geometry,
}

/// What the netlist keeps per net.
#[derive(Debug, Clone, Copy)]
struct NetRecord {
    name: Span,
    /// Explicit grounded capacitance \[F\].
    cap: f64,
    /// Declared primary input / output.
    input: bool,
    output: bool,
}

/// A flat circuit: named nets, devices, explicit capacitors and
/// primary-I/O declarations.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    /// Every net name, back to back (a rename appends the new name).
    names: String,
    nets: Vec<NetRecord>,
    by_name: NameIndex,
    devices: Vec<NetDevice>,
    /// Device name → the first device of that exact name.
    by_device_name: NameIndex,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<NetId>,
}

impl Netlist {
    /// An empty netlist with `vdd` and `gnd` nets pre-created.
    pub fn new() -> Self {
        let mut n = Netlist::default();
        n.net("vdd");
        n.net("gnd");
        n
    }

    /// The supply net.
    pub fn vdd(&self) -> NetId {
        NetId(0)
    }

    /// The ground net.
    pub fn gnd(&self) -> NetId {
        NetId(1)
    }

    /// Whether `id` is one of the two rails.
    pub fn is_rail(&self, id: NetId) -> bool {
        id == self.vdd() || id == self.gnd()
    }

    /// Gets or creates a net by name (`"0"` aliases `gnd`, `"vdd!"` /
    /// `"vcc"` alias `vdd`).
    pub fn net(&mut self, name: &str) -> NetId {
        let canonical = match name {
            "0" | "GND" | "gnd!" => "gnd",
            "vdd!" | "VDD" | "vcc" => "vdd",
            other => other,
        };
        let hash = name_hash(canonical);
        if let Some(id) = self.lookup_net(hash, canonical) {
            return id;
        }
        let id = NetId(self.nets.len());
        self.nets.push(NetRecord {
            name: push_name(&mut self.names, canonical),
            cap: 0.0,
            input: false,
            output: false,
        });
        self.by_name.insert(hash, id.0);
        id
    }

    fn lookup_net(&self, hash: u32, name: &str) -> Option<NetId> {
        self.by_name
            .find(hash, |i| name_at(&self.names, self.nets[i].name) == name)
            .map(NetId)
    }

    /// Looks a net up without creating it.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.lookup_net(name_hash(name), name)
    }

    /// Net name by id.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn net_name(&self, id: NetId) -> &str {
        name_at(&self.names, self.nets[id.0].name)
    }

    /// Appends a device and indexes its name unless an earlier device
    /// already has exactly that name.
    fn push_device(&mut self, device: NetDevice) -> usize {
        let index = self.devices.len();
        let hash = name_hash(&device.name);
        let first = self
            .by_device_name
            .find(hash, |i| self.devices[i].name == device.name)
            .is_none();
        self.devices.push(device);
        if first {
            self.by_device_name.insert(hash, index);
        }
        index
    }

    /// Adds a transistor.
    pub fn add_transistor(
        &mut self,
        name: impl Into<String>,
        kind: DeviceKind,
        gate: NetId,
        src: NetId,
        snk: NetId,
        geom: Geometry,
    ) -> usize {
        debug_assert!(kind != DeviceKind::Wire);
        self.push_device(NetDevice {
            name: name.into(),
            kind,
            gate: Some(gate),
            src,
            snk,
            geom,
        })
    }

    /// Adds a wire segment of the given `w × l`.
    pub fn add_wire(
        &mut self,
        name: impl Into<String>,
        a: NetId,
        b: NetId,
        w: f64,
        l: f64,
    ) -> usize {
        self.push_device(NetDevice {
            name: name.into(),
            kind: DeviceKind::Wire,
            gate: None,
            src: a,
            snk: b,
            geom: Geometry::new(w, l),
        })
    }

    /// Adds grounded capacitance at a net (accumulates).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range net.
    pub fn add_cap(&mut self, net: NetId, value: f64) {
        self.nets[net.0].cap += value;
    }

    /// Sets the explicit grounded capacitance at a net to an absolute
    /// value (what-if load edits), replacing any accumulated value.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] for a negative or non-finite
    /// value or an out-of-range net.
    pub fn set_cap(&mut self, net: NetId, value: f64) -> Result<()> {
        if !value.is_finite() || value < 0.0 {
            return Err(NumError::InvalidInput {
                context: "Netlist::set_cap",
                detail: format!("capacitance {value}"),
            });
        }
        match self.nets.get_mut(net.0) {
            Some(rec) => {
                rec.cap = value;
                Ok(())
            }
            None => Err(NumError::InvalidInput {
                context: "Netlist::set_cap",
                detail: format!("net {} out of range", net.0),
            }),
        }
    }

    /// Renames a net (ECO-style edits). The old name stops resolving.
    /// Re-indexes every net name: O(nets).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] for a rail, an out-of-range
    /// net, or a name that already exists.
    pub fn rename_net(&mut self, net: NetId, name: &str) -> Result<()> {
        if self.is_rail(net) {
            return Err(NumError::InvalidInput {
                context: "Netlist::rename_net",
                detail: "cannot rename a supply rail".to_string(),
            });
        }
        if net.0 >= self.nets.len() {
            return Err(NumError::InvalidInput {
                context: "Netlist::rename_net",
                detail: format!("net {} out of range", net.0),
            });
        }
        if self.find_net(name).is_some() {
            return Err(NumError::InvalidInput {
                context: "Netlist::rename_net",
                detail: format!("net name {name:?} already exists"),
            });
        }
        self.nets[net.0].name = push_name(&mut self.names, name);
        self.by_name = NameIndex::default();
        for i in 0..self.nets.len() {
            let hash = name_hash(name_at(&self.names, self.nets[i].name));
            self.by_name.insert(hash, i);
        }
        Ok(())
    }

    /// Resolves a device index by instance name: the first device of
    /// exactly that name (case-sensitive), through the name index (edit
    /// files and CLIs address devices by name).
    pub fn find_device(&self, name: &str) -> Option<usize> {
        self.by_device_name
            .find(name_hash(name), |i| self.devices[i].name == name)
    }

    /// Whether some device's name equals `name` up to ASCII case (the
    /// deck parser's duplicate-name rule).
    pub(crate) fn has_device_named_ignoring_case(&self, name: &str) -> bool {
        self.by_device_name
            .find(name_hash(name), |i| {
                self.devices[i].name.eq_ignore_ascii_case(name)
            })
            .is_some()
    }

    /// Declares a primary input net.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range net.
    pub fn add_primary_input(&mut self, net: NetId) {
        if !std::mem::replace(&mut self.nets[net.0].input, true) {
            self.primary_inputs.push(net);
        }
    }

    /// Declares a primary output net.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range net.
    pub fn add_primary_output(&mut self, net: NetId) {
        if !std::mem::replace(&mut self.nets[net.0].output, true) {
            self.primary_outputs.push(net);
        }
    }

    /// Whether `net` is a declared primary output.
    pub(crate) fn is_primary_output(&self, net: NetId) -> bool {
        self.nets.get(net.0).is_some_and(|n| n.output)
    }

    /// All devices.
    pub fn devices(&self) -> &[NetDevice] {
        &self.devices
    }

    /// Replaces the geometry of device `index` (transistor sizing).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] for an unknown device or
    /// non-positive dimensions.
    pub fn set_device_geometry(&mut self, index: usize, geom: Geometry) -> Result<()> {
        if geom.w <= 0.0 || geom.l <= 0.0 {
            return Err(NumError::InvalidInput {
                context: "Netlist::set_device_geometry",
                detail: format!("w={} l={}", geom.w, geom.l),
            });
        }
        match self.devices.get_mut(index) {
            Some(d) => {
                d.geom = geom;
                Ok(())
            }
            None => Err(NumError::InvalidInput {
                context: "Netlist::set_device_geometry",
                detail: format!("device {index} out of range"),
            }),
        }
    }

    /// Explicit grounded capacitance at `net`.
    pub fn cap(&self, net: NetId) -> f64 {
        self.nets.get(net.0).map_or(0.0, |n| n.cap)
    }

    /// Declared primary inputs.
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// Declared primary outputs.
    pub fn primary_outputs(&self) -> &[NetId] {
        &self.primary_outputs
    }

    /// Number of nets (including the rails).
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Basic sanity validation: every declared primary I/O exists and
    /// every device has distinct channel terminals.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] on violations.
    pub fn validate(&self) -> Result<()> {
        for d in &self.devices {
            if d.src == d.snk {
                return Err(NumError::InvalidInput {
                    context: "Netlist::validate",
                    detail: format!("device {} shorts a net to itself", d.name),
                });
            }
            if d.geom.w <= 0.0 || d.geom.l <= 0.0 {
                return Err(NumError::InvalidInput {
                    context: "Netlist::validate",
                    detail: format!("device {} has non-positive geometry", d.name),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qwm_device::tech::Technology;

    #[test]
    fn rails_and_aliases() {
        let mut n = Netlist::new();
        assert_eq!(n.net("0"), n.gnd());
        assert_eq!(n.net("GND"), n.gnd());
        assert_eq!(n.net("vdd!"), n.vdd());
        assert!(n.is_rail(n.vdd()));
        let x = n.net("x");
        assert!(!n.is_rail(x));
        assert_eq!(n.net_name(n.gnd()), "gnd");
    }

    #[test]
    fn nets_are_interned() {
        let mut n = Netlist::new();
        let a = n.net("a");
        assert_eq!(n.net("a"), a);
        assert_eq!(n.find_net("a"), Some(a));
        assert_eq!(n.find_net("b"), None);
        assert_eq!(n.net_count(), 3);
    }

    #[test]
    fn caps_accumulate() {
        let mut n = Netlist::new();
        let a = n.net("a");
        n.add_cap(a, 1e-15);
        n.add_cap(a, 2e-15);
        assert!((n.cap(a) - 3e-15).abs() < 1e-24);
        assert_eq!(n.cap(n.gnd()), 0.0);
    }

    #[test]
    fn io_declarations_dedupe() {
        let mut n = Netlist::new();
        let a = n.net("a");
        n.add_primary_input(a);
        n.add_primary_input(a);
        assert_eq!(n.primary_inputs(), &[a]);
        n.add_primary_output(a);
        assert_eq!(n.primary_outputs(), &[a]);
    }

    #[test]
    fn validation_catches_shorts_and_bad_geometry() {
        let t = Technology::cmosp35();
        let mut n = Netlist::new();
        let a = n.net("a");
        let g = n.net("g");
        n.add_transistor(
            "M1",
            DeviceKind::Nmos,
            g,
            a,
            a,
            Geometry::new(t.w_min, t.l_min),
        );
        assert!(n.validate().is_err());

        let mut n = Netlist::new();
        let a = n.net("a");
        let b = n.net("b");
        n.add_wire("W1", a, b, 0.0, 1e-6);
        assert!(n.validate().is_err());
    }

    #[test]
    fn find_device_is_exact_case_first_match() {
        let t = Technology::cmosp35();
        let g = Geometry::new(t.w_min, t.l_min);
        let mut n = Netlist::new();
        let (a, b, c) = (n.net("a"), n.net("b"), n.net("c"));
        let gnd = n.gnd();
        n.add_transistor("MN1", DeviceKind::Nmos, a, b, gnd, g);
        n.add_transistor("mn1", DeviceKind::Nmos, a, c, gnd, g);
        n.add_transistor("MN1", DeviceKind::Nmos, b, c, gnd, g);
        n.add_wire("W1", b, c, 0.6e-6, 1e-6);
        assert_eq!(n.find_device("MN1"), Some(0), "first of the duplicates");
        assert_eq!(n.find_device("mn1"), Some(1), "case-sensitive");
        assert_eq!(n.find_device("Mn1"), None);
        assert_eq!(n.find_device("W1"), Some(3));
        assert!(n.has_device_named_ignoring_case("Mn1"));
        assert!(!n.has_device_named_ignoring_case("MN2"));
        // Renaming a net moves net lookups only; devices keep resolving.
        n.rename_net(b, "b2").unwrap();
        assert_eq!(n.find_net("b"), None);
        assert_eq!(n.find_net("b2"), Some(b));
        assert_eq!(n.net_name(b), "b2");
        assert_eq!((n.find_net("a"), n.find_net("c")), (Some(a), Some(c)));
        assert!(n.rename_net(c, "a").is_err(), "name already taken");
        assert_eq!(n.find_device("MN1"), Some(0));
        assert_eq!(n.find_device("W1"), Some(3));
        // A clone carries its indexes.
        let m = n.clone();
        assert_eq!(m.find_device("mn1"), Some(1));
        assert_eq!(m.find_net("b2"), Some(b));
    }
}
