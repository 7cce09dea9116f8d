package harness

import (
	"fmt"
	"strings"

	"l2fuzz/internal/bt/device"
)

// TableVRow is one row of the testbed inventory (paper Table V).
type TableVRow struct {
	// ID is the device number D1..D8.
	ID string
	// Type, Vendor, Model, Year, OS, Stack and BTVersion mirror the
	// paper's columns.
	Type, Vendor, Model string
	Year                int
	OS, Stack           string
	BTVersion           string
	// MAC is the simulated BD_ADDR (not in the paper's table; recorded
	// for reproducibility).
	MAC string
	// Ports is the number of exposed service ports including SDP.
	Ports int
}

// product is a catalog device's product columns of Table V: what the
// paper lists about the hardware that no layer below the table reads.
type product struct {
	Type, Vendor, Model string
	Year                int
	OS                  string
}

// products holds the Table V product columns by paper ID.
var products = map[string]product{
	"D1": {"Tablet PC", "Google", "Nexus 7 (ASUS-1A005A)", 2013, "Android 6.0.1"},
	"D2": {"Smartphone", "Google", "Pixel 3 (GA00464)", 2018, "Android 11.0.1"},
	"D3": {"Smartphone", "Samsung", "Galaxy S7 (SM-G930L)", 2016, "Android 8.0.0"},
	"D4": {"Smartphone", "Apple", "iPhone 6S (A1688)", 2015, "iOS 15.0.2"},
	"D5": {"Earphone", "Apple", "AirPods 1 gen (A1523)", 2016, "FW 6.8.8"},
	"D6": {"Earphone", "Samsung", "Galaxy Buds+ (SM-R175NZKATUR)", 2020, "R175XXU0AUG1"},
	"D7": {"Laptop", "LG", "Gram 2019 (15ZD990-VX50K)", 2019, "Windows 10"},
	"D8": {"Laptop", "LG", "Gram 2017 (15ZD970-GX55K)", 2017, "Ubuntu 18.04.4"},
}

// TableV regenerates the device-inventory table from the catalog: the
// product columns from products, the stack, Bluetooth version, address
// and ports from each device's spec.
func TableV() []TableVRow {
	var rows []TableVRow
	for _, s := range device.CatalogSpecs(false) {
		ports := len(s.Config.Ports)
		hasSDP := false
		for _, p := range s.Config.Ports {
			if p.PSM == 0x0001 {
				hasSDP = true
			}
		}
		if !hasSDP {
			ports++ // the device model adds SDP automatically
		}
		p := products[s.Name]
		rows = append(rows, TableVRow{
			ID: s.Name, Type: p.Type, Vendor: p.Vendor, Model: p.Model,
			Year: p.Year, OS: p.OS,
			Stack: s.Config.Profile.Stack, BTVersion: s.Config.Profile.BTVersion,
			MAC: s.Config.Addr.String(), Ports: ports,
		})
	}
	return rows
}

// RenderTableV prints the rows the way the paper's Table V reads. The
// Model column is as wide as its longest entry.
func RenderTableV(rows []TableVRow) string {
	modelW := len("Model")
	for _, r := range rows {
		modelW = max(modelW, len(r.Model))
	}
	var b strings.Builder
	b.WriteString("Table V: Summary of test devices used in the experiments\n")
	fmt.Fprintf(&b, "%-3s %-11s %-8s %-*s %-5s %-14s %-14s %-9s %-6s\n",
		"No.", "Type", "Vendor", modelW, "Model", "Year", "OS or FW", "BT Stack", "BT Ver.", "Ports")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-3s %-11s %-8s %-*s %-5d %-14s %-14s %-9s %-6d\n",
			r.ID, r.Type, r.Vendor, modelW, r.Model, r.Year, r.OS, r.Stack, r.BTVersion, r.Ports)
	}
	return b.String()
}
