//! The one reading of an on/off environment variable.

/// Whether the environment sets `name` to anything but `0` or the empty
/// string — the one reading of every on/off `HFS_*` variable.
pub fn env_flag(name: &str) -> bool {
    std::env::var_os(name).is_some_and(|v| v != "0" && !v.is_empty())
}

#[cfg(test)]
mod tests {
    use super::env_flag;

    #[test]
    fn unset_empty_and_zero_are_off_anything_else_is_on() {
        // A name nothing else reads, so no concurrent test sees it move.
        const NAME: &str = "HFS_ENV_FLAG_UNDER_TEST";
        std::env::remove_var(NAME);
        assert!(!env_flag(NAME), "unset");
        for (value, on) in [("", false), ("0", false), ("1", true), ("yes", true)] {
            std::env::set_var(NAME, value);
            assert_eq!(env_flag(NAME), on, "{NAME}={value:?}");
        }
        std::env::remove_var(NAME);
    }
}
