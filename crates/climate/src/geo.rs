//! Coordinates, great-circle distances, and longitude-derived time zones.

use std::fmt;

/// Mean Earth radius in kilometres.
pub const EARTH_RADIUS_KM: f64 = 6371.0;

/// A geographic coordinate in decimal degrees.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatLon {
    /// Latitude, degrees north (−90..=90).
    pub lat: f64,
    /// Longitude, degrees east (−180..=180).
    pub lon: f64,
}

impl LatLon {
    /// Creates a coordinate, normalizing longitude into `(-180, 180]`.
    ///
    /// # Panics
    ///
    /// Panics if `lat` is outside `[-90, 90]` or not finite.
    pub fn new(lat: f64, lon: f64) -> Self {
        assert!(
            lat.is_finite() && (-90.0..=90.0).contains(&lat),
            "bad latitude {lat}"
        );
        assert!(lon.is_finite(), "bad longitude {lon}");
        let mut lon = (lon + 180.0).rem_euclid(360.0) - 180.0;
        if lon == -180.0 {
            lon = 180.0;
        }
        Self { lat, lon }
    }

    /// Great-circle distance to `other` in kilometres (haversine formula).
    pub fn distance_km(&self, other: &LatLon) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }

    /// Idealized UTC offset in hours derived from longitude (15° per hour).
    pub fn utc_offset_hours(&self) -> f64 {
        (self.lon / 15.0).round()
    }

    /// Fractional solar-time offset from UTC in hours (no rounding).
    pub fn solar_offset_hours(&self) -> f64 {
        self.lon / 15.0
    }

    /// `true` for southern-hemisphere coordinates.
    pub fn is_southern(&self) -> bool {
        self.lat < 0.0
    }
}

impl fmt::Display for LatLon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = if self.lat >= 0.0 { 'N' } else { 'S' };
        let ew = if self.lon >= 0.0 { 'E' } else { 'W' };
        write!(f, "{:.2}°{ns} {:.2}°{ew}", self.lat.abs(), self.lon.abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance_to_self() {
        let p = LatLon::new(40.0, -75.0);
        assert!(p.distance_km(&p) < 1e-9);
    }

    #[test]
    fn known_distance_barcelona_to_piscataway() {
        // The paper's own migration measurement pair.
        let barcelona = LatLon::new(41.39, 2.17);
        let piscataway = LatLon::new(40.55, -74.46);
        let d = barcelona.distance_km(&piscataway);
        assert!((d - 6150.0).abs() < 150.0, "got {d}");
    }

    #[test]
    fn antipodal_distance_near_half_circumference() {
        let a = LatLon::new(0.0, 0.0);
        let b = LatLon::new(0.0, 180.0);
        let d = a.distance_km(&b);
        assert!((d - std::f64::consts::PI * EARTH_RADIUS_KM).abs() < 1.0);
    }

    #[test]
    fn utc_offsets() {
        assert_eq!(LatLon::new(0.0, 0.0).utc_offset_hours(), 0.0);
        assert_eq!(LatLon::new(19.4, -99.1).utc_offset_hours(), -7.0); // Mexico City (solar)
        assert_eq!(LatLon::new(13.6, 144.9).utc_offset_hours(), 10.0); // Guam
        assert_eq!(LatLon::new(-1.3, 36.8).utc_offset_hours(), 2.0); // Nairobi (solar)
    }

    #[test]
    fn longitude_normalization() {
        assert_eq!(LatLon::new(0.0, 190.0).lon, -170.0);
        assert_eq!(LatLon::new(0.0, -190.0).lon, 170.0);
        assert_eq!(LatLon::new(0.0, -180.0).lon, 180.0);
    }

    #[test]
    #[should_panic(expected = "bad latitude")]
    fn rejects_bad_latitude() {
        LatLon::new(91.0, 0.0);
    }

    #[test]
    fn display_formats_hemispheres() {
        let s = LatLon::new(-17.8, 31.05).to_string();
        assert!(s.contains('S') && s.contains('E'));
    }

    #[test]
    fn distance_symmetry() {
        let a = LatLon::new(50.45, 30.52);
        let b = LatLon::new(44.27, -71.3);
        assert!((a.distance_km(&b) - b.distance_km(&a)).abs() < 1e-9);
    }
}
