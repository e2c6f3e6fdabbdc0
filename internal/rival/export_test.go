package rival

// Threads returns the machine's processors in processor order.
func (m *Machine) Threads() []*Thread { return m.threads }
