//! Trace-time calendar helpers.
//!
//! Testbed timestamps are seconds since the start of the trace. The
//! paper's analysis splits everything by weekday/weekend and by hour of
//! day; these helpers do that arithmetic in one place.

/// Seconds per day.
pub const SECS_PER_DAY: u64 = 86_400;

/// Seconds per hour.
pub const SECS_PER_HOUR: u64 = 3_600;

/// Day type, the paper's two analysis classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DayType {
    /// Monday–Friday.
    Weekday,
    /// Saturday–Sunday.
    Weekend,
}

impl std::fmt::Display for DayType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DayType::Weekday => f.write_str("weekday"),
            DayType::Weekend => f.write_str("weekend"),
        }
    }
}

/// Zero-based day index since trace start.
#[inline]
pub fn day_index(t: u64) -> u64 {
    t / SECS_PER_DAY
}

/// Hour of day, `0..24`.
#[inline]
pub fn hour_of_day(t: u64) -> u8 {
    ((t % SECS_PER_DAY) / SECS_PER_HOUR) as u8
}

/// Day-of-week (0 = Monday … 6 = Sunday) given the weekday the trace
/// started on.
#[inline]
pub fn day_of_week(day: u64, start_weekday: u8) -> u8 {
    ((day + start_weekday as u64) % 7) as u8
}

/// Day type for a day index.
#[inline]
pub fn day_type(day: u64, start_weekday: u8) -> DayType {
    if day_of_week(day, start_weekday) >= 5 {
        DayType::Weekend
    } else {
        DayType::Weekday
    }
}

/// Day type of a timestamp.
#[inline]
pub fn day_type_at(t: u64, start_weekday: u8) -> DayType {
    day_type(day_index(t), start_weekday)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_arithmetic() {
        assert_eq!(day_index(0), 0);
        assert_eq!(day_index(SECS_PER_DAY - 1), 0);
        assert_eq!(day_index(SECS_PER_DAY), 1);
        assert_eq!(hour_of_day(0), 0);
        assert_eq!(hour_of_day(3 * SECS_PER_HOUR + 59), 3);
        assert_eq!(hour_of_day(SECS_PER_DAY - 1), 23);
    }

    #[test]
    fn weekday_cycle_from_monday() {
        // Start Monday: days 0–4 weekdays, 5–6 weekend, then repeat.
        for d in 0..5 {
            assert_eq!(day_type(d, 0), DayType::Weekday, "day {d}");
        }
        assert_eq!(day_type(5, 0), DayType::Weekend);
        assert_eq!(day_type(6, 0), DayType::Weekend);
        assert_eq!(day_type(7, 0), DayType::Weekday);
    }

    #[test]
    fn start_weekday_offset() {
        // Start Saturday (5): day 0 and 1 are weekend.
        assert_eq!(day_type(0, 5), DayType::Weekend);
        assert_eq!(day_type(1, 5), DayType::Weekend);
        assert_eq!(day_type(2, 5), DayType::Weekday);
    }

    #[test]
    fn day_type_at_timestamp() {
        assert_eq!(day_type_at(4 * SECS_PER_DAY + 100, 0), DayType::Weekday);
        assert_eq!(day_type_at(5 * SECS_PER_DAY + 100, 0), DayType::Weekend);
    }
}
