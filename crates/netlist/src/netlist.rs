//! The netlist container and its validating builder.

use std::collections::HashMap;

use twmc_geom::{Point, TileSet};

use crate::{
    AspectRange, Cell, CellGeometry, CellId, CellInstance, GroupId, Net, NetId, NetPin, Pin,
    PinGroup, PinId, PinPlacement, SideSet,
};

/// Errors detected while building or validating a netlist.
#[derive(Debug, Clone, PartialEq)]
pub enum NetlistError {
    /// A cell name was used twice.
    DuplicateCellName(String),
    /// A pin name was used twice on the same cell.
    DuplicatePinName(String, String),
    /// A net name was used twice.
    DuplicateNetName(String),
    /// A group name was used twice on the same cell.
    DuplicateGroupName(String, String),
    /// Referenced id does not exist.
    UnknownId(String),
    /// A fixed pin position lies outside its instance geometry.
    PinOutsideCell {
        /// Offending cell name.
        cell: String,
        /// Offending pin name.
        pin: String,
        /// Instance index.
        instance: usize,
    },
    /// A pin was connected to more than one net.
    PinOnMultipleNets(String),
    /// A site/group placement was used on a macro cell.
    UncommittedPinOnMacro(String, String),
    /// A group member belongs to a different cell than the group.
    GroupMemberWrongCell(String, String),
    /// An instance is missing a position for some pin.
    InstanceMissingPinPosition(String, usize),
    /// A numeric parameter was out of range (message describes it).
    BadParameter(String),
    /// The netlist has no cell: there is nothing to place.
    NoCells,
}

impl core::fmt::Display for NetlistError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        use NetlistError::*;
        match self {
            DuplicateCellName(n) => write!(f, "duplicate cell name `{n}`"),
            DuplicatePinName(c, p) => write!(f, "duplicate pin name `{p}` on cell `{c}`"),
            DuplicateNetName(n) => write!(f, "duplicate net name `{n}`"),
            DuplicateGroupName(c, g) => write!(f, "duplicate group name `{g}` on cell `{c}`"),
            UnknownId(what) => write!(f, "unknown id: {what}"),
            PinOutsideCell {
                cell,
                pin,
                instance,
            } => write!(
                f,
                "pin `{pin}` of cell `{cell}` lies outside instance {instance} geometry"
            ),
            PinOnMultipleNets(p) => write!(f, "pin `{p}` is connected to more than one net"),
            UncommittedPinOnMacro(c, p) => write!(
                f,
                "pin `{p}` on macro cell `{c}` must have a fixed position"
            ),
            GroupMemberWrongCell(g, p) => {
                write!(f, "pin `{p}` belongs to a different cell than group `{g}`")
            }
            InstanceMissingPinPosition(c, i) => {
                write!(f, "instance {i} of cell `{c}` is missing pin positions")
            }
            BadParameter(msg) => write!(f, "bad parameter: {msg}"),
            NoCells => write!(f, "the netlist defines no cells"),
        }
    }
}

impl std::error::Error for NetlistError {}

/// Aggregate statistics of a circuit, as reported in the paper's tables.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitStats {
    /// Number of cells `N_c`.
    pub cells: usize,
    /// Number of nets `N_n`.
    pub nets: usize,
    /// Total number of pins.
    pub pins: usize,
    /// Sum of default-shape cell areas.
    pub total_area: i64,
    /// Average cell area (the paper's `c̄_a`, before interconnect
    /// allowance).
    pub avg_area: f64,
    /// Sum of default-shape cell perimeters.
    pub total_perimeter: i64,
    /// Circuit-average pin density `D̄_p` = pins / total perimeter
    /// (paper §2.2 factor 3).
    pub avg_pin_density: f64,
}

/// A complete, validated circuit: cells, pins, nets, and pin groups.
///
/// Construct via [`NetlistBuilder`] or parse from text via
/// [`crate::parse_netlist`].
#[derive(Debug, Clone)]
pub struct Netlist {
    cells: Vec<Cell>,
    pins: Vec<Pin>,
    nets: Vec<Net>,
    groups: Vec<PinGroup>,
}

impl Netlist {
    /// All cells.
    #[inline]
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// All pins.
    #[inline]
    pub fn pins(&self) -> &[Pin] {
        &self.pins
    }

    /// All nets.
    #[inline]
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All pin groups.
    #[inline]
    pub fn groups(&self) -> &[PinGroup] {
        &self.groups
    }

    /// Looks up a cell.
    #[inline]
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Looks up a pin.
    #[inline]
    pub fn pin(&self, id: PinId) -> &Pin {
        &self.pins[id.index()]
    }

    /// Looks up a net.
    #[inline]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Looks up a pin group.
    #[inline]
    pub fn group(&self, id: GroupId) -> &PinGroup {
        &self.groups[id.index()]
    }

    /// Finds a cell by name.
    pub fn cell_by_name(&self, name: &str) -> Option<&Cell> {
        self.cells.iter().find(|c| c.name == name)
    }

    /// Finds a net by name.
    pub fn net_by_name(&self, name: &str) -> Option<&Net> {
        self.nets.iter().find(|n| n.name == name)
    }

    /// Finds a pin by `cell.pin` qualified name.
    pub fn pin_by_name(&self, cell: &str, pin: &str) -> Option<&Pin> {
        let c = self.cell_by_name(cell)?;
        c.pins.iter().map(|&p| self.pin(p)).find(|p| p.name == pin)
    }

    /// Nets attached to the given cell (deduplicated, in id order).
    pub fn nets_of_cell(&self, cell: CellId) -> Vec<NetId> {
        let mut out: Vec<NetId> = self.cells[cell.index()]
            .pins
            .iter()
            .filter_map(|&p| self.pin(p).net)
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Computes the aggregate circuit statistics.
    pub fn stats(&self) -> CircuitStats {
        let total_area: i64 = self.cells.iter().map(|c| c.area()).sum();
        let total_perimeter: i64 = self.cells.iter().map(|c| c.perimeter()).sum();
        let pins = self.pins.len();
        CircuitStats {
            cells: self.cells.len(),
            nets: self.nets.len(),
            pins,
            total_area,
            avg_area: if self.cells.is_empty() {
                0.0
            } else {
                total_area as f64 / self.cells.len() as f64
            },
            total_perimeter,
            avg_pin_density: if total_perimeter == 0 {
                0.0
            } else {
                pins as f64 / total_perimeter as f64
            },
        }
    }
}

/// Incrementally builds and validates a [`Netlist`].
///
/// # Examples
///
/// ```
/// use twmc_geom::TileSet;
/// use twmc_netlist::{NetlistBuilder, NetPin};
/// use twmc_geom::Point;
///
/// let mut b = NetlistBuilder::new();
/// let a = b.add_macro("a", TileSet::rect(10, 10));
/// let c = b.add_macro("b", TileSet::rect(8, 6));
/// let p1 = b.add_fixed_pin(a, "o", Point::new(10, 5))?;
/// let p2 = b.add_fixed_pin(c, "i", Point::new(0, 3))?;
/// b.add_net("w", vec![NetPin::simple(p1), NetPin::simple(p2)], 1.0, 1.0)?;
/// let netlist = b.build()?;
/// assert_eq!(netlist.stats().cells, 2);
/// # Ok::<(), twmc_netlist::NetlistError>(())
/// ```
#[derive(Debug, Default)]
pub struct NetlistBuilder {
    cells: Vec<Cell>,
    pins: Vec<Pin>,
    nets: Vec<Net>,
    groups: Vec<PinGroup>,
    cell_names: HashMap<String, CellId>,
    net_names: HashMap<String, NetId>,
}

impl NetlistBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a macro cell with a single instance of the given geometry.
    pub fn add_macro(&mut self, name: &str, tiles: TileSet) -> CellId {
        let id = CellId::from_index(self.cells.len());
        self.cell_names.insert(name.to_owned(), id);
        self.cells.push(Cell {
            id,
            name: name.to_owned(),
            geometry: CellGeometry::Fixed {
                instances: vec![CellInstance {
                    name: "default".to_owned(),
                    tiles,
                    pin_positions: Vec::new(),
                }],
            },
            pins: Vec::new(),
            sites_per_edge: 0,
        });
        id
    }

    /// Adds an alternative instance to a macro cell. Pin positions for the
    /// cell's existing pins must be supplied in pin order.
    ///
    /// # Errors
    ///
    /// Fails if the cell is custom or `pin_positions` has the wrong length.
    pub fn add_instance(
        &mut self,
        cell: CellId,
        name: &str,
        tiles: TileSet,
        pin_positions: Vec<Point>,
    ) -> Result<usize, NetlistError> {
        let c = self
            .cells
            .get_mut(cell.index())
            .ok_or_else(|| NetlistError::UnknownId(format!("cell {cell}")))?;
        let npins = c.pins.len();
        match &mut c.geometry {
            CellGeometry::Fixed { instances } => {
                if pin_positions.len() != npins {
                    return Err(NetlistError::InstanceMissingPinPosition(
                        c.name.clone(),
                        instances.len(),
                    ));
                }
                instances.push(CellInstance {
                    name: name.to_owned(),
                    tiles,
                    pin_positions,
                });
                Ok(instances.len() - 1)
            }
            CellGeometry::Flexible { .. } => Err(NetlistError::BadParameter(format!(
                "cell `{}` is custom and cannot have instances",
                c.name
            ))),
        }
    }

    /// Replaces the geometry of a macro cell's primary instance (used by
    /// the parser, which learns the tiles after creating the cell).
    ///
    /// # Errors
    ///
    /// Fails if the cell is unknown or custom.
    pub fn replace_primary_geometry(
        &mut self,
        cell: CellId,
        tiles: TileSet,
    ) -> Result<(), NetlistError> {
        let c = self
            .cells
            .get_mut(cell.index())
            .ok_or_else(|| NetlistError::UnknownId(format!("cell {cell}")))?;
        match &mut c.geometry {
            CellGeometry::Fixed { instances } => {
                instances[0].tiles = tiles;
                Ok(())
            }
            CellGeometry::Flexible { .. } => Err(NetlistError::BadParameter(format!(
                "cell `{}` is custom and has no fixed geometry",
                c.name
            ))),
        }
    }

    /// Adds a custom cell with estimated `area`, permitted aspect-ratio
    /// range, and `sites_per_edge` pin sites along each edge (paper §2.4).
    pub fn add_custom(
        &mut self,
        name: &str,
        area: i64,
        aspect: AspectRange,
        sites_per_edge: u32,
    ) -> CellId {
        let id = CellId::from_index(self.cells.len());
        self.cell_names.insert(name.to_owned(), id);
        self.cells.push(Cell {
            id,
            name: name.to_owned(),
            geometry: CellGeometry::Flexible { area, aspect },
            pins: Vec::new(),
            sites_per_edge: sites_per_edge.max(1),
        });
        id
    }

    /// The boundary edges of a macro cell's primary-instance geometry, for
    /// callers (e.g. the synthetic generator) that place pins on the
    /// boundary before the netlist is built.
    ///
    /// Returns an empty vector for custom cells or unknown ids.
    pub fn peek_primary_boundary(&self, cell: CellId) -> Vec<twmc_geom::BoundaryEdge> {
        match self.cells.get(cell.index()).map(|c| &c.geometry) {
            Some(CellGeometry::Fixed { instances }) => {
                twmc_geom::boundary_edges(&instances[0].tiles)
            }
            _ => Vec::new(),
        }
    }

    /// Adds a pin with a fixed cell-local position. For macro cells the
    /// position is recorded on every existing instance (override
    /// per-instance positions via [`NetlistBuilder::add_instance`]).
    ///
    /// # Errors
    ///
    /// Fails if the cell id is unknown.
    pub fn add_fixed_pin(
        &mut self,
        cell: CellId,
        name: &str,
        pos: Point,
    ) -> Result<PinId, NetlistError> {
        self.add_pin_internal(cell, name, PinPlacement::Fixed(pos))
    }

    /// Adds an uncommitted pin restricted to sites on the given sides of a
    /// custom cell.
    ///
    /// # Errors
    ///
    /// Fails if the cell id is unknown (macro-cell misuse is caught at
    /// [`NetlistBuilder::build`] time).
    pub fn add_site_pin(
        &mut self,
        cell: CellId,
        name: &str,
        sides: SideSet,
    ) -> Result<PinId, NetlistError> {
        self.add_pin_internal(cell, name, PinPlacement::Sites(sides))
    }

    fn add_pin_internal(
        &mut self,
        cell: CellId,
        name: &str,
        placement: PinPlacement,
    ) -> Result<PinId, NetlistError> {
        let c = self
            .cells
            .get_mut(cell.index())
            .ok_or_else(|| NetlistError::UnknownId(format!("cell {cell}")))?;
        let id = PinId::from_index(self.pins.len());
        c.pins.push(id);
        if let (PinPlacement::Fixed(p), CellGeometry::Fixed { instances }) =
            (&placement, &mut c.geometry)
        {
            for inst in instances.iter_mut() {
                inst.pin_positions.push(*p);
            }
        }
        self.pins.push(Pin {
            id,
            name: name.to_owned(),
            cell,
            net: None,
            placement,
        });
        Ok(id)
    }

    /// Groups existing uncommitted pins of one custom cell; sets each
    /// member's placement to refer to the group.
    ///
    /// # Errors
    ///
    /// Fails if a member pin is unknown or on a different cell.
    pub fn add_group(
        &mut self,
        cell: CellId,
        name: &str,
        sides: SideSet,
        sequenced: bool,
        pins: Vec<PinId>,
    ) -> Result<GroupId, NetlistError> {
        let id = GroupId::from_index(self.groups.len());
        for &p in &pins {
            let pin = self
                .pins
                .get_mut(p.index())
                .ok_or_else(|| NetlistError::UnknownId(format!("pin {p}")))?;
            if pin.cell != cell {
                return Err(NetlistError::GroupMemberWrongCell(
                    name.to_owned(),
                    pin.name.clone(),
                ));
            }
            pin.placement = PinPlacement::Grouped(id);
        }
        self.groups.push(PinGroup {
            id,
            name: name.to_owned(),
            cell,
            pins,
            sides,
            sequenced,
        });
        Ok(id)
    }

    /// Adds a net over the given connection points with per-direction
    /// weights (`h(n)`, `v(n)` of eq. 6).
    ///
    /// # Errors
    ///
    /// Fails if a pin is unknown or already on another net.
    pub fn add_net(
        &mut self,
        name: &str,
        pins: Vec<NetPin>,
        weight_h: f64,
        weight_v: f64,
    ) -> Result<NetId, NetlistError> {
        let id = NetId::from_index(self.nets.len());
        for np in &pins {
            for p in np.candidates() {
                let pin = self
                    .pins
                    .get_mut(p.index())
                    .ok_or_else(|| NetlistError::UnknownId(format!("pin {p}")))?;
                if let Some(existing) = pin.net {
                    if existing != id {
                        return Err(NetlistError::PinOnMultipleNets(pin.name.clone()));
                    }
                }
                pin.net = Some(id);
            }
        }
        self.net_names.insert(name.to_owned(), id);
        self.nets.push(Net {
            id,
            name: name.to_owned(),
            pins,
            weight_h,
            weight_v,
        });
        Ok(id)
    }

    /// Convenience: adds a net connecting simple (non-equivalent) pins with
    /// unit weights.
    ///
    /// # Errors
    ///
    /// Same as [`NetlistBuilder::add_net`].
    pub fn add_simple_net(&mut self, name: &str, pins: &[PinId]) -> Result<NetId, NetlistError> {
        self.add_net(
            name,
            pins.iter().map(|&p| NetPin::simple(p)).collect(),
            1.0,
            1.0,
        )
    }

    /// Validates everything and produces the immutable [`Netlist`].
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found.
    pub fn build(self) -> Result<Netlist, NetlistError> {
        if self.cells.is_empty() {
            return Err(NetlistError::NoCells);
        }
        // Unique cell names.
        let mut seen = HashMap::new();
        for c in &self.cells {
            if seen.insert(c.name.clone(), ()).is_some() {
                return Err(NetlistError::DuplicateCellName(c.name.clone()));
            }
        }
        // Unique net names.
        let mut seen = HashMap::new();
        for n in &self.nets {
            if seen.insert(n.name.clone(), ()).is_some() {
                return Err(NetlistError::DuplicateNetName(n.name.clone()));
            }
        }
        for c in &self.cells {
            // Unique pin names per cell.
            let mut seen = HashMap::new();
            for &p in &c.pins {
                let pin = &self.pins[p.index()];
                if seen.insert(pin.name.clone(), ()).is_some() {
                    return Err(NetlistError::DuplicatePinName(
                        c.name.clone(),
                        pin.name.clone(),
                    ));
                }
                // Macro cells may not carry uncommitted pins.
                if !c.is_custom() && pin.is_uncommitted() {
                    return Err(NetlistError::UncommittedPinOnMacro(
                        c.name.clone(),
                        pin.name.clone(),
                    ));
                }
            }
            // Instances carry a position for every pin, inside geometry.
            for (k, inst) in c.instances().iter().enumerate() {
                if inst.pin_positions.len() != c.pins.len() {
                    return Err(NetlistError::InstanceMissingPinPosition(c.name.clone(), k));
                }
                for (&p, &pos) in c.pins.iter().zip(&inst.pin_positions) {
                    if !inst.tiles.contains(pos) {
                        return Err(NetlistError::PinOutsideCell {
                            cell: c.name.clone(),
                            pin: self.pins[p.index()].name.clone(),
                            instance: k,
                        });
                    }
                }
            }
        }
        // Degenerate nets (fewer than two connection points) are
        // permitted: they span nothing, contribute zero cost, and appear
        // in real imports (the text format allows `net NAME :`; YAL
        // filters supply signals down to nothing). The placement and
        // routing layers skip them.
        Ok(Netlist {
            cells: self.cells,
            pins: self.pins,
            nets: self.nets,
            groups: self.groups,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twmc_geom::Side;

    #[test]
    fn build_simple_circuit() {
        let mut b = NetlistBuilder::new();
        let a = b.add_macro("a", TileSet::rect(10, 10));
        let c = b.add_macro("b", TileSet::rect(8, 6));
        let p1 = b.add_fixed_pin(a, "o", Point::new(10, 5)).unwrap();
        let p2 = b.add_fixed_pin(c, "i", Point::new(0, 3)).unwrap();
        b.add_simple_net("w", &[p1, p2]).unwrap();
        let nl = b.build().unwrap();
        let st = nl.stats();
        assert_eq!((st.cells, st.nets, st.pins), (2, 1, 2));
        assert_eq!(st.total_area, 148);
        assert_eq!(st.total_perimeter, 40 + 28);
        assert!((st.avg_pin_density - 2.0 / 68.0).abs() < 1e-12);
        assert_eq!(nl.pin_by_name("a", "o").unwrap().id(), p1);
        assert_eq!(nl.nets_of_cell(a), vec![NetId::from_index(0)]);
    }

    #[test]
    fn a_netlist_needs_a_cell() {
        assert_eq!(
            NetlistBuilder::new().build().unwrap_err(),
            NetlistError::NoCells
        );
        let mut b = NetlistBuilder::new();
        b.add_net("floating", Vec::new(), 1.0, 1.0).unwrap();
        let e = b.build().unwrap_err();
        assert_eq!(e.to_string(), "the netlist defines no cells");
    }

    #[test]
    fn rejects_duplicate_cell_names() {
        let mut b = NetlistBuilder::new();
        b.add_macro("a", TileSet::rect(2, 2));
        b.add_macro("a", TileSet::rect(2, 2));
        assert_eq!(
            b.build().unwrap_err(),
            NetlistError::DuplicateCellName("a".into())
        );
    }

    #[test]
    fn rejects_pin_outside_cell() {
        let mut b = NetlistBuilder::new();
        let a = b.add_macro("a", TileSet::rect(4, 4));
        b.add_fixed_pin(a, "p", Point::new(9, 9)).unwrap();
        let q = b.add_macro("q", TileSet::rect(4, 4));
        let p2 = b.add_fixed_pin(q, "p", Point::new(0, 0)).unwrap();
        let p1 = PinId::from_index(0);
        b.add_simple_net("n", &[p1, p2]).unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            NetlistError::PinOutsideCell { .. }
        ));
    }

    #[test]
    fn rejects_uncommitted_pin_on_macro() {
        let mut b = NetlistBuilder::new();
        let a = b.add_macro("a", TileSet::rect(4, 4));
        b.add_site_pin(a, "p", SideSet::single(Side::Left)).unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            NetlistError::UncommittedPinOnMacro(..)
        ));
    }

    #[test]
    fn degenerate_nets_are_permitted() {
        // Single-pin and zero-pin nets import and span nothing; the cost
        // layers skip them (they appear in real netlists after supply
        // filtering).
        let mut b = NetlistBuilder::new();
        let a = b.add_macro("a", TileSet::rect(4, 4));
        let p = b.add_fixed_pin(a, "p", Point::new(0, 0)).unwrap();
        b.add_simple_net("n", &[p]).unwrap();
        b.add_net("empty", Vec::new(), 1.0, 1.0).unwrap();
        let nl = b.build().unwrap();
        assert_eq!(nl.net_by_name("n").unwrap().degree(), 1);
        assert_eq!(nl.net_by_name("empty").unwrap().degree(), 0);
    }

    #[test]
    fn rejects_pin_on_two_nets() {
        let mut b = NetlistBuilder::new();
        let a = b.add_macro("a", TileSet::rect(4, 4));
        let c = b.add_macro("b", TileSet::rect(4, 4));
        let p1 = b.add_fixed_pin(a, "p", Point::new(0, 0)).unwrap();
        let p2 = b.add_fixed_pin(c, "p", Point::new(0, 0)).unwrap();
        b.add_simple_net("n1", &[p1, p2]).unwrap();
        assert_eq!(
            b.add_simple_net("n2", &[p1, p2]).unwrap_err(),
            NetlistError::PinOnMultipleNets("p".into())
        );
    }

    #[test]
    fn custom_cell_with_groups() {
        let mut b = NetlistBuilder::new();
        let cc = b.add_custom("cc", 400, AspectRange::Continuous { min: 0.5, max: 2.0 }, 8);
        let p1 = b.add_site_pin(cc, "d0", SideSet::ALL).unwrap();
        let p2 = b.add_site_pin(cc, "d1", SideSet::ALL).unwrap();
        let g = b
            .add_group(
                cc,
                "bus",
                SideSet::of(&[Side::Left, Side::Right]),
                true,
                vec![p1, p2],
            )
            .unwrap();
        let other = b.add_macro("m", TileSet::rect(5, 5));
        let p3 = b.add_fixed_pin(other, "x", Point::new(5, 2)).unwrap();
        let p4 = b.add_fixed_pin(other, "y", Point::new(0, 2)).unwrap();
        b.add_simple_net("n0", &[p1, p3]).unwrap();
        b.add_simple_net("n1", &[p2, p4]).unwrap();
        let nl = b.build().unwrap();
        assert_eq!(nl.groups().len(), 1);
        assert_eq!(nl.group(g).pins, vec![p1, p2]);
        assert!(nl.group(g).sequenced);
        assert!(matches!(
            nl.pin(p1).placement,
            PinPlacement::Grouped(gg) if gg == g
        ));
        assert!(nl.cell(cc).is_custom());
        assert_eq!(nl.cell(cc).sites_per_edge, 8);
    }

    #[test]
    fn instances_with_positions() {
        let mut b = NetlistBuilder::new();
        let a = b.add_macro("a", TileSet::rect(10, 4));
        let p1 = b.add_fixed_pin(a, "p", Point::new(0, 2)).unwrap();
        // A taller alternative instance; pin moves accordingly.
        b.add_instance(a, "tall", TileSet::rect(4, 10), vec![Point::new(0, 5)])
            .unwrap();
        let q = b.add_macro("q", TileSet::rect(4, 4));
        let p2 = b.add_fixed_pin(q, "p", Point::new(2, 0)).unwrap();
        b.add_simple_net("n", &[p1, p2]).unwrap();
        let nl = b.build().unwrap();
        assert_eq!(nl.cell(a).instance_count(), 2);
        assert_eq!(
            nl.cell(a).instances()[1].pin_positions,
            vec![Point::new(0, 5)]
        );
    }

    #[test]
    fn instance_wrong_pin_count_rejected() {
        let mut b = NetlistBuilder::new();
        let a = b.add_macro("a", TileSet::rect(10, 4));
        b.add_fixed_pin(a, "p", Point::new(0, 2)).unwrap();
        assert!(b
            .add_instance(a, "bad", TileSet::rect(4, 10), vec![])
            .is_err());
    }

    #[test]
    fn net_with_equivalent_pins() {
        let mut b = NetlistBuilder::new();
        let a = b.add_macro("a", TileSet::rect(6, 6));
        let p1 = b.add_fixed_pin(a, "o", Point::new(6, 3)).unwrap();
        let q = b.add_macro("q", TileSet::rect(6, 6));
        let ia = b.add_fixed_pin(q, "iA", Point::new(0, 1)).unwrap();
        let ib = b.add_fixed_pin(q, "iB", Point::new(0, 5)).unwrap();
        b.add_net(
            "n",
            vec![
                NetPin::simple(p1),
                NetPin {
                    primary: ia,
                    equivalents: vec![ib],
                },
            ],
            1.0,
            2.0,
        )
        .unwrap();
        let nl = b.build().unwrap();
        let n = nl.net_by_name("n").unwrap();
        assert_eq!(n.degree(), 2);
        assert_eq!(n.all_pins().count(), 3);
        assert_eq!(n.weight_v, 2.0);
    }
}
