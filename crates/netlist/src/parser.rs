//! Parser for the TWMC netlist text format.
//!
//! The format is line-based and whitespace-separated. `#` starts a
//! comment. Blocks:
//!
//! ```text
//! macro NAME
//!   tile X Y W H            # one or more geometry tiles
//!   pin NAME X Y            # fixed pin position (cell-local)
//!   instance NAME           # optional alternative geometry
//!     tile X Y W H
//!     pinpos PIN X Y        # position of each pin in this instance
//! end
//!
//! custom NAME area A aspect MIN MAX sites N
//!   pin NAME sides LRBT     # uncommitted pin on the given sides
//!   pin NAME fixed X Y      # fixed pin on a custom cell
//!   group NAME sides LRBT seq|set : PIN PIN ...
//! end
//!
//! net NAME [hw F] [vw F] : CELL.PIN[=CELL.PIN...] CELL.PIN ...
//! ```
//!
//! `=` joins electrically-equivalent pins into one connection point.

use std::collections::HashMap;

use twmc_geom::{Point, Rect, TileSet};

use crate::{AspectRange, CellId, NetPin, Netlist, NetlistBuilder, NetlistError, PinId, SideSet};

/// Error produced while parsing a netlist file.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<NetlistError> for ParseError {
    fn from(e: NetlistError) -> Self {
        ParseError {
            line: 0,
            message: e.to_string(),
        }
    }
}

struct Parser<'a> {
    lines: Vec<(usize, Vec<&'a str>)>,
    pos: usize,
    builder: NetlistBuilder,
    /// name → (cell, pin) for net resolution.
    pin_index: HashMap<(String, String), PinId>,
    cell_index: HashMap<String, CellId>,
}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn parse_num<T: std::str::FromStr>(line: usize, tok: &str, what: &str) -> Result<T, ParseError> {
    tok.parse()
        .map_err(|_| err(line, format!("invalid {what}: `{tok}`")))
}

/// Parses header argument `toks[i]` as a `what`; a header that ends
/// before it is an error, not an index past the end.
fn parse_arg<T: std::str::FromStr>(
    line: usize,
    toks: &[&str],
    i: usize,
    what: &str,
) -> Result<T, ParseError> {
    let tok = toks
        .get(i)
        .ok_or_else(|| err(line, format!("missing {what}")))?;
    parse_num(line, tok, what)
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        let lines = input
            .lines()
            .enumerate()
            .map(|(i, l)| {
                let l = l.split('#').next().unwrap_or("");
                (i + 1, l.split_whitespace().collect::<Vec<_>>())
            })
            .filter(|(_, toks)| !toks.is_empty())
            .collect();
        Parser {
            lines,
            pos: 0,
            builder: NetlistBuilder::new(),
            pin_index: HashMap::new(),
            cell_index: HashMap::new(),
        }
    }

    fn peek(&self) -> Option<&(usize, Vec<&'a str>)> {
        self.lines.get(self.pos)
    }

    fn next(&mut self) -> Option<(usize, Vec<&'a str>)> {
        let l = self.lines.get(self.pos).cloned();
        self.pos += 1;
        l
    }

    fn run(mut self) -> Result<Netlist, ParseError> {
        while let Some((line, toks)) = self.next() {
            match toks[0] {
                "macro" => self.parse_macro(line, &toks)?,
                "custom" => self.parse_custom(line, &toks)?,
                "net" => self.parse_net(line, &toks)?,
                other => return Err(err(line, format!("unknown directive `{other}`"))),
            }
        }
        self.builder.build().map_err(ParseError::from)
    }

    fn parse_tiles_and_pins_for_macro(
        &mut self,
        cell: CellId,
        cell_name: &str,
    ) -> Result<(), ParseError> {
        // First pass: collect primary tiles and pins until `instance` or `end`.
        // Parsed instance block: (line, name, tiles, pin positions).
        type InstanceBlock = (usize, String, Vec<Rect>, Vec<(String, Point)>);
        let mut tiles: Vec<Rect> = Vec::new();
        let mut pins: Vec<(String, Point)> = Vec::new();
        let mut instances: Vec<InstanceBlock> = Vec::new();
        loop {
            let (line, toks) = self
                .next()
                .ok_or_else(|| err(0, "unexpected end of file inside macro block"))?;
            match toks[0] {
                "end" => break,
                "tile" if toks.len() == 5 => {
                    let x = parse_num(line, toks[1], "x")?;
                    let y = parse_num(line, toks[2], "y")?;
                    let w = parse_num(line, toks[3], "width")?;
                    let h = parse_num(line, toks[4], "height")?;
                    tiles.push(Rect::from_wh(x, y, w, h));
                }
                "pin" if toks.len() == 4 => {
                    let x = parse_num(line, toks[2], "x")?;
                    let y = parse_num(line, toks[3], "y")?;
                    pins.push((toks[1].to_owned(), Point::new(x, y)));
                }
                "instance" if toks.len() == 2 => {
                    let mut itiles = Vec::new();
                    let mut ipins = Vec::new();
                    while let Some((iline, itoks)) = self.peek().cloned() {
                        match itoks[0] {
                            "tile" if itoks.len() == 5 => {
                                self.next();
                                let x = parse_num(iline, itoks[1], "x")?;
                                let y = parse_num(iline, itoks[2], "y")?;
                                let w = parse_num(iline, itoks[3], "width")?;
                                let h = parse_num(iline, itoks[4], "height")?;
                                itiles.push(Rect::from_wh(x, y, w, h));
                            }
                            "pinpos" if itoks.len() == 4 => {
                                self.next();
                                let x = parse_num(iline, itoks[2], "x")?;
                                let y = parse_num(iline, itoks[3], "y")?;
                                ipins.push((itoks[1].to_owned(), Point::new(x, y)));
                            }
                            _ => break,
                        }
                    }
                    instances.push((line, toks[1].to_owned(), itiles, ipins));
                }
                _ => {
                    return Err(err(
                        line,
                        format!("unexpected `{}` in macro block", toks[0]),
                    ))
                }
            }
        }
        if tiles.is_empty() {
            return Err(err(0, format!("macro `{cell_name}` has no tiles")));
        }
        // Rebuild the cell geometry now that tiles are known: the builder
        // created it with a placeholder, so replace via a fresh TileSet.
        let ts = TileSet::new(tiles).map_err(|e| err(0, e.to_string()))?;
        self.builder
            .replace_primary_geometry(cell, ts)
            .map_err(ParseError::from)?;
        let mut order = Vec::new();
        for (name, pos) in &pins {
            let pid = self
                .builder
                .add_fixed_pin(cell, name, *pos)
                .map_err(ParseError::from)?;
            self.pin_index
                .insert((cell_name.to_owned(), name.clone()), pid);
            order.push(name.clone());
        }
        for (line, iname, itiles, ipins) in instances {
            let ts = TileSet::new(itiles).map_err(|e| err(line, e.to_string()))?;
            let map: HashMap<&str, Point> = ipins.iter().map(|(n, p)| (n.as_str(), *p)).collect();
            let mut positions = Vec::with_capacity(order.len());
            for n in &order {
                match map.get(n.as_str()) {
                    Some(p) => positions.push(*p),
                    None => {
                        return Err(err(
                            line,
                            format!("instance `{iname}` missing pinpos for `{n}`"),
                        ))
                    }
                }
            }
            self.builder
                .add_instance(cell, &iname, ts, positions)
                .map_err(ParseError::from)?;
        }
        Ok(())
    }

    fn parse_macro(&mut self, line: usize, toks: &[&str]) -> Result<(), ParseError> {
        if toks.len() != 2 {
            return Err(err(line, "usage: macro NAME"));
        }
        let name = toks[1];
        // Placeholder geometry; replaced once tiles are read.
        let cell = self.builder.add_macro(name, TileSet::rect(1, 1));
        self.cell_index.insert(name.to_owned(), cell);
        self.parse_tiles_and_pins_for_macro(cell, name)
    }

    fn parse_custom(&mut self, line: usize, toks: &[&str]) -> Result<(), ParseError> {
        // custom NAME area A aspect MIN MAX [sites N] | aspectlist r1,r2,..
        if toks.len() < 4 {
            return Err(err(
                line,
                "usage: custom NAME area A aspect MIN MAX [sites N]",
            ));
        }
        let name = toks[1];
        let mut area: Option<i64> = None;
        let mut aspect: Option<AspectRange> = None;
        let mut sites = 8u32;
        let mut i = 2;
        while i < toks.len() {
            match toks[i] {
                "area" => {
                    area = Some(parse_arg(line, toks, i + 1, "area")?);
                    i += 2;
                }
                "aspect" => {
                    let min = parse_arg(line, toks, i + 1, "aspect min")?;
                    let max = parse_arg(line, toks, i + 2, "aspect max")?;
                    aspect = Some(AspectRange::Continuous { min, max });
                    i += 3;
                }
                "aspectlist" => {
                    let list: String = parse_arg(line, toks, i + 1, "aspect list")?;
                    let rs: Result<Vec<f64>, _> = list
                        .split(',')
                        .map(|t| parse_num(line, t, "aspect ratio"))
                        .collect();
                    aspect = Some(AspectRange::Discrete(rs?));
                    i += 2;
                }
                "sites" => {
                    sites = parse_arg(line, toks, i + 1, "sites")?;
                    i += 2;
                }
                other => return Err(err(line, format!("unexpected `{other}` in custom header"))),
            }
        }
        let area = area.ok_or_else(|| err(line, "custom cell needs `area`"))?;
        let aspect = aspect.ok_or_else(|| err(line, "custom cell needs `aspect`"))?;
        let cell = self.builder.add_custom(name, area, aspect, sites);
        self.cell_index.insert(name.to_owned(), cell);

        loop {
            let (bline, toks) = self
                .next()
                .ok_or_else(|| err(line, "unexpected end of file inside custom block"))?;
            match toks[0] {
                "end" => break,
                "pin" if toks.len() == 4 && toks[2] == "sides" => {
                    let sides = SideSet::parse(toks[3])
                        .ok_or_else(|| err(bline, format!("bad side set `{}`", toks[3])))?;
                    let pid = self
                        .builder
                        .add_site_pin(cell, toks[1], sides)
                        .map_err(ParseError::from)?;
                    self.pin_index
                        .insert((name.to_owned(), toks[1].to_owned()), pid);
                }
                "pin" if toks.len() == 5 && toks[2] == "fixed" => {
                    let x = parse_num(bline, toks[3], "x")?;
                    let y = parse_num(bline, toks[4], "y")?;
                    let pid = self
                        .builder
                        .add_fixed_pin(cell, toks[1], Point::new(x, y))
                        .map_err(ParseError::from)?;
                    self.pin_index
                        .insert((name.to_owned(), toks[1].to_owned()), pid);
                }
                "group" => {
                    // group NAME sides LRBT seq|set : PIN...
                    let colon = toks
                        .iter()
                        .position(|&t| t == ":")
                        .ok_or_else(|| err(bline, "group needs `:` before member pins"))?;
                    if colon != 5 || toks[2] != "sides" {
                        return Err(err(bline, "usage: group NAME sides LRBT seq|set : PINS"));
                    }
                    let sides = SideSet::parse(toks[3])
                        .ok_or_else(|| err(bline, format!("bad side set `{}`", toks[3])))?;
                    let sequenced = match toks[4] {
                        "seq" => true,
                        "set" => false,
                        other => {
                            return Err(err(bline, format!("expected seq|set, got `{other}`")))
                        }
                    };
                    let mut members = Vec::new();
                    for &pname in &toks[colon + 1..] {
                        let pid = self
                            .pin_index
                            .get(&(name.to_owned(), pname.to_owned()))
                            .copied()
                            .ok_or_else(|| err(bline, format!("unknown pin `{pname}`")))?;
                        members.push(pid);
                    }
                    self.builder
                        .add_group(cell, toks[1], sides, sequenced, members)
                        .map_err(ParseError::from)?;
                }
                _ => {
                    return Err(err(
                        bline,
                        format!("unexpected `{}` in custom block", toks[0]),
                    ))
                }
            }
        }
        Ok(())
    }

    fn resolve_pin(&self, line: usize, token: &str) -> Result<PinId, ParseError> {
        let (cell, pin) = token
            .split_once('.')
            .ok_or_else(|| err(line, format!("expected CELL.PIN, got `{token}`")))?;
        self.pin_index
            .get(&(cell.to_owned(), pin.to_owned()))
            .copied()
            .ok_or_else(|| err(line, format!("unknown pin `{token}`")))
    }

    fn parse_net(&mut self, line: usize, toks: &[&str]) -> Result<(), ParseError> {
        if toks.len() < 2 {
            return Err(err(line, "usage: net NAME [hw F] [vw F] : PINS"));
        }
        let name = toks[1];
        let mut hw = 1.0;
        let mut vw = 1.0;
        let mut i = 2;
        while i < toks.len() && toks[i] != ":" {
            match toks[i] {
                "hw" => {
                    hw = parse_arg(line, toks, i + 1, "hw")?;
                    i += 2;
                }
                "vw" => {
                    vw = parse_arg(line, toks, i + 1, "vw")?;
                    i += 2;
                }
                other => return Err(err(line, format!("unexpected `{other}` in net header"))),
            }
        }
        if i >= toks.len() {
            return Err(err(line, "net needs `:` before pins"));
        }
        let mut pins = Vec::new();
        for &tok in &toks[i + 1..] {
            let mut parts = tok.split('=');
            let primary = self.resolve_pin(line, parts.next().expect("split yields one"))?;
            let equivalents: Result<Vec<PinId>, _> =
                parts.map(|p| self.resolve_pin(line, p)).collect();
            pins.push(NetPin {
                primary,
                equivalents: equivalents?,
            });
        }
        self.builder
            .add_net(name, pins, hw, vw)
            .map_err(ParseError::from)?;
        Ok(())
    }
}

/// Parses a netlist from the TWMC text format.
///
/// # Errors
///
/// Returns a [`ParseError`] with a line number for syntax problems, or
/// line 0 for semantic problems: a wrapped [`NetlistError`], such as
/// [`NetlistError::NoCells`] for a netlist that defines no cells.
///
/// # Examples
///
/// ```
/// let nl = twmc_netlist::parse_netlist(
///     "macro a\n tile 0 0 4 4\n pin o 4 2\nend\n\
///      macro b\n tile 0 0 4 4\n pin i 0 2\nend\n\
///      net w : a.o b.i\n",
/// )?;
/// assert_eq!(nl.stats().cells, 2);
/// # Ok::<(), twmc_netlist::ParseError>(())
/// ```
pub fn parse_netlist(input: &str) -> Result<Netlist, ParseError> {
    Parser::new(input).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PinPlacement;

    const SIMPLE: &str = "
# two macros and a net
macro a
  tile 0 0 10 10
  pin o 10 5
end
macro b
  tile 0 0 8 6
  pin i 0 3
end
net w hw 2 : a.o b.i
";

    #[test]
    fn parses_simple() {
        let nl = parse_netlist(SIMPLE).unwrap();
        assert_eq!(nl.stats().cells, 2);
        assert_eq!(nl.stats().nets, 1);
        assert_eq!(nl.net_by_name("w").unwrap().weight_h, 2.0);
        let a = nl.cell_by_name("a").unwrap();
        assert_eq!(a.default_shape().area(), 100);
    }

    #[test]
    fn parses_rectilinear_macro_with_instances() {
        let src = "
macro l
  tile 0 0 4 2
  tile 0 2 2 2
  pin p 4 1
  instance tall
    tile 0 0 2 4
    tile 2 0 2 2
    pinpos p 2 3
end
macro m
  tile 0 0 3 3
  pin q 0 0
end
net n : l.p m.q
";
        let nl = parse_netlist(src).unwrap();
        let l = nl.cell_by_name("l").unwrap();
        assert_eq!(l.instance_count(), 2);
        assert_eq!(l.instances()[0].tiles.area(), 12);
        assert_eq!(l.instances()[1].pin_positions[0], Point::new(2, 3));
    }

    #[test]
    fn parses_custom_with_groups_and_equivalents() {
        let src = "
custom cc area 400 aspect 0.5 2.0 sites 6
  pin d0 sides LR
  pin d1 sides LR
  pin fx fixed 0 0
  group bus sides LR seq : d0 d1
end
macro m
  tile 0 0 5 5
  pin xA 5 1
  pin xB 5 4
  pin y 0 2
end
net n0 : cc.d0 m.xA=m.xB
net n1 vw 3 : cc.d1 m.y cc.fx
";
        let nl = parse_netlist(src).unwrap();
        let cc = nl.cell_by_name("cc").unwrap();
        assert!(cc.is_custom());
        assert_eq!(cc.sites_per_edge, 6);
        assert_eq!(nl.groups().len(), 1);
        let n0 = nl.net_by_name("n0").unwrap();
        assert_eq!(n0.pins[1].equivalents.len(), 1);
        let fx = nl.pin_by_name("cc", "fx").unwrap();
        assert!(matches!(fx.placement, PinPlacement::Fixed(_)));
        assert_eq!(nl.net_by_name("n1").unwrap().weight_v, 3.0);
    }

    #[test]
    fn error_reports_line() {
        let e = parse_netlist("macro a\n tile 0 0 4 4\n bogus\nend").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn a_short_header_is_an_error() {
        let custom = "custom a area 5 aspect 1\n pin p sides L\nend\n";
        let e = parse_netlist(custom).unwrap_err();
        assert_eq!(e.to_string(), "line 1: missing aspect max");
        let net = "macro a\n tile 0 0 4 4\n pin o 4 2\nend\nnet n hw\n";
        assert_eq!(
            parse_netlist(net).unwrap_err().to_string(),
            "line 5: missing hw"
        );
    }

    #[test]
    fn a_netlist_without_cells_is_an_error() {
        for text in ["", "# nothing\n", "\n  \n"] {
            let e = parse_netlist(text).unwrap_err();
            assert_eq!(e.to_string(), "line 0: the netlist defines no cells");
        }
    }

    #[test]
    fn unknown_pin_in_net() {
        let e =
            parse_netlist("macro a\n tile 0 0 4 4\n pin p 0 0\nend\nnet n : a.p a.q").unwrap_err();
        assert!(e.message.contains("a.q"), "{e}");
    }
}
