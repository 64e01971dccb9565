//! Core pipeline configuration.

use hfs_sim::ConfigError;

// Upper bounds on what one core may issue into its window in a cycle: a
// spec from the wire must fail validation, not exhaust memory. Each is 8x
// or more the largest committed value (6-issue, 6 ALUs, 32 entries).

/// The widest issue and the most units of any one kind.
pub const MAX_ISSUE_WIDTH: u32 = 64;
/// The largest in-flight instruction window.
pub const MAX_WINDOW: u32 = 256;

/// Configuration of one in-order core (Table 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions issued per cycle.
    pub issue_width: u32,
    /// Integer ALUs.
    pub int_alus: u32,
    /// Floating-point units.
    pub fp_units: u32,
    /// Branch units.
    pub branch_units: u32,
    /// Memory ports (loads/stores/produce/consume issued per cycle).
    pub mem_ports: u32,
    /// In-flight instruction window (in-order commit).
    pub window: u32,
    /// Register-mapped queues (§3.1.3 of the paper): produce/consume
    /// ride existing instructions, costing no issue slots or memory
    /// ports.
    pub free_queue_ops: bool,
}

impl CoreConfig {
    /// The paper's 6-issue Itanium 2 core: 6 ALU, 4 memory, 2 FP,
    /// 3 branch.
    pub fn itanium2() -> Self {
        CoreConfig {
            issue_width: 6,
            int_alus: 6,
            fp_units: 2,
            branch_units: 3,
            mem_ports: 4,
            window: 32,
            free_queue_ops: false,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Rejects zero widths and empty windows, and widths, unit counts or
    /// windows above [`MAX_ISSUE_WIDTH`] and [`MAX_WINDOW`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.issue_width == 0 {
            return Err(ConfigError::new("issue width must be non-zero"));
        }
        if self.int_alus == 0 || self.branch_units == 0 || self.mem_ports == 0 {
            return Err(ConfigError::new(
                "cores need at least one ALU, branch unit, and memory port",
            ));
        }
        if self.window == 0 {
            return Err(ConfigError::new("instruction window must be non-zero"));
        }
        let widths = [
            self.issue_width,
            self.int_alus,
            self.fp_units,
            self.branch_units,
            self.mem_ports,
        ];
        if widths.iter().any(|&w| w > MAX_ISSUE_WIDTH) {
            return Err(ConfigError::new(format!(
                "issue width and unit counts must be at most {MAX_ISSUE_WIDTH}"
            )));
        }
        if self.window > MAX_WINDOW {
            return Err(ConfigError::new(format!(
                "instruction window must be at most {MAX_WINDOW}"
            )));
        }
        Ok(())
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::itanium2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn itanium2_matches_table2() {
        let c = CoreConfig::itanium2();
        assert_eq!(c.issue_width, 6);
        assert_eq!(c.int_alus, 6);
        assert_eq!(c.fp_units, 2);
        assert_eq!(c.branch_units, 3);
        assert_eq!(c.mem_ports, 4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_zero_fields() {
        let mut c = CoreConfig::itanium2();
        c.issue_width = 0;
        assert!(c.validate().is_err());
        let mut c = CoreConfig::itanium2();
        c.mem_ports = 0;
        assert!(c.validate().is_err());
        let mut c = CoreConfig::itanium2();
        c.window = 0;
        assert!(c.validate().is_err());
    }
}
