// Package rtlib simulates the Java runtime library environments the
// paper calls e in r = jvm(e, c, i): a registry of platform classes with
// their hierarchy, flags and accessibility. Three release variants
// (JRE7/JRE8/JRE9 plus the GNU Classpath library used by GIJ) differ in
// exactly the ways that produced the paper's compatibility
// discrepancies: classes present in one release and absent in another,
// classes final in one release but not in another, and sun.* classes
// inaccessible under the Java 9 module system.
package rtlib

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Release identifies a runtime library version.
type Release int

// Library releases paired with the five VM presets.
const (
	JRE7 Release = iota
	JRE8
	JRE9
	Classpath // GNU Classpath, the library GIJ interprets against
)

// String returns the human name of the release.
func (r Release) String() string {
	switch r {
	case JRE7:
		return "JRE7"
	case JRE8:
		return "JRE8"
	case JRE9:
		return "JRE9"
	case Classpath:
		return "GNU-Classpath"
	}
	return "JRE?"
}

// ParseRelease maps a flag value — jre7, jre8, jre9 or classpath — to
// its release.
func ParseRelease(s string) (Release, error) {
	switch s {
	case "jre7":
		return JRE7, nil
	case "jre8":
		return JRE8, nil
	case "jre9":
		return JRE9, nil
	case "classpath":
		return Classpath, nil
	}
	return 0, fmt.Errorf("rtlib: unknown release %q (want jre7|jre8|jre9|classpath)", s)
}

// MethodInfo is one platform method the simulator knows about.
type MethodInfo struct {
	Name string
	Desc string
	// Static marks static methods; the interpreter needs the distinction.
	Static bool
}

// FieldInfo is one platform field the simulator knows about.
type FieldInfo struct {
	Name   string
	Desc   string
	Static bool
}

// ClassInfo describes one platform class.
type ClassInfo struct {
	Name       string // internal name
	Super      string // internal name, "" for java/lang/Object
	Interfaces []string
	Interface  bool // declared as an interface
	Final      bool
	Abstract   bool
	// Accessible is false for classes that exist but may not be linked
	// against from user code (package-private, synthetic inner classes,
	// or module-encapsulated sun.* classes in JRE9).
	Accessible bool
	Methods    []MethodInfo
	Fields     []FieldInfo
}

// HasMethod reports whether the class declares the named method.
func (c *ClassInfo) HasMethod(name, desc string) bool {
	for _, m := range c.Methods {
		if m.Name == name && m.Desc == desc {
			return true
		}
	}
	return false
}

// HasField reports whether the class declares the named field.
func (c *ClassInfo) HasField(name, desc string) bool {
	for _, f := range c.Fields {
		if f.Name == name && f.Desc == desc {
			return true
		}
	}
	return false
}

// Env is one runtime library environment.
type Env struct {
	Release Release
	classes map[string]*ClassInfo
}

// NewEnv builds the class registry for a release.
func NewEnv(r Release) *Env {
	e := &Env{Release: r, classes: make(map[string]*ClassInfo, 256)}
	e.populate()
	return e
}

// shared holds one lazily built environment per release.
var shared = [...]func() *Env{
	JRE7:      sync.OnceValue(func() *Env { return NewEnv(JRE7) }),
	JRE8:      sync.OnceValue(func() *Env { return NewEnv(JRE8) }),
	JRE9:      sync.OnceValue(func() *Env { return NewEnv(JRE9) }),
	Classpath: sync.OnceValue(func() *Env { return NewEnv(Classpath) }),
}

// Shared returns the process-wide environment for a release, built on
// first use. An Env is immutable once populated (nothing outside this
// package writes a ClassInfo, and add runs only inside populate), so
// every VM, runner and oracle of a release can read the same one
// concurrently.
func Shared(r Release) *Env { return shared[r]() }

// Lookup finds a platform class by internal name. Array types resolve
// to a pseudo-class that subclasses Object.
func (e *Env) Lookup(name string) (*ClassInfo, bool) {
	if strings.HasPrefix(name, "[") {
		return &ClassInfo{
			Name:       name,
			Super:      "java/lang/Object",
			Interfaces: []string{"java/lang/Cloneable", "java/io/Serializable"},
			Accessible: true,
			Final:      true,
		}, true
	}
	c, ok := e.classes[name]
	return c, ok
}

// Contains reports whether the class exists in this release at all
// (accessible or not).
func (e *Env) Contains(name string) bool {
	_, ok := e.Lookup(name)
	return ok
}

// ClassNames returns all registered class names, sorted.
func (e *Env) ClassNames() []string {
	out := make([]string, 0, len(e.classes))
	for n := range e.classes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// IsSubclassOf walks the superclass chain (classes only; use Implements
// for interfaces). A class is a subclass of itself.
func (e *Env) IsSubclassOf(sub, super string) bool {
	for cur := sub; cur != ""; {
		if cur == super {
			return true
		}
		c, ok := e.Lookup(cur)
		if !ok {
			return false
		}
		cur = c.Super
	}
	return false
}

// Implements reports whether class name (or any superclass) lists iface
// in its interface closure.
func (e *Env) Implements(name, iface string) bool {
	seen := map[string]bool{}
	var walk func(n string) bool
	walk = func(n string) bool {
		if n == "" || seen[n] {
			return false
		}
		seen[n] = true
		if n == iface {
			return true
		}
		c, ok := e.Lookup(n)
		if !ok {
			return false
		}
		for _, i := range c.Interfaces {
			if walk(i) {
				return true
			}
		}
		return walk(c.Super)
	}
	return walk(name)
}

// IsThrowable reports whether the class descends from java/lang/Throwable.
func (e *Env) IsThrowable(name string) bool {
	return e.IsSubclassOf(name, "java/lang/Throwable")
}

// AssignableTo reports whether a value of class `from` can be assigned
// to a variable of class/interface `to` using only platform-class
// knowledge. Unknown classes are not assignable to anything but Object.
func (e *Env) AssignableTo(from, to string) bool {
	if from == to || to == "java/lang/Object" {
		return true
	}
	if e.IsSubclassOf(from, to) {
		return true
	}
	return e.Implements(from, to)
}

func (e *Env) add(c *ClassInfo) { e.classes[c.Name] = c }

// cls is a terse constructor for registry population.
func cls(name, super string, opts ...func(*ClassInfo)) *ClassInfo {
	c := &ClassInfo{Name: name, Super: super, Accessible: true}
	for _, o := range opts {
		o(c)
	}
	return c
}

func iface(names ...string) func(*ClassInfo) {
	return func(c *ClassInfo) { c.Interfaces = append(c.Interfaces, names...) }
}

func isInterface(c *ClassInfo)  { c.Interface = true; c.Abstract = true }
func isFinal(c *ClassInfo)      { c.Final = true }
func isAbstract(c *ClassInfo)   { c.Abstract = true }
func inaccessible(c *ClassInfo) { c.Accessible = false }

func methods(ms ...MethodInfo) func(*ClassInfo) {
	return func(c *ClassInfo) { c.Methods = append(c.Methods, ms...) }
}

func fields(fs ...FieldInfo) func(*ClassInfo) {
	return func(c *ClassInfo) { c.Fields = append(c.Fields, fs...) }
}

func (e *Env) populate() {
	// --- java.lang core -------------------------------------------------
	e.add(cls("java/lang/Object", "", methods(
		MethodInfo{Name: "<init>", Desc: "()V"},
		MethodInfo{Name: "toString", Desc: "()Ljava/lang/String;"},
		MethodInfo{Name: "hashCode", Desc: "()I"},
		MethodInfo{Name: "equals", Desc: "(Ljava/lang/Object;)Z"},
		MethodInfo{Name: "getClass", Desc: "()Ljava/lang/Class;"},
		MethodInfo{Name: "getBoolean", Desc: "(Ljava/util/Map;)Z", Static: true},
	)))
	e.add(cls("java/lang/String", "java/lang/Object", isFinal,
		iface("java/io/Serializable", "java/lang/Comparable", "java/lang/CharSequence"),
		methods(
			MethodInfo{Name: "length", Desc: "()I"},
			MethodInfo{Name: "charAt", Desc: "(I)C"},
			MethodInfo{Name: "concat", Desc: "(Ljava/lang/String;)Ljava/lang/String;"},
			MethodInfo{Name: "valueOf", Desc: "(I)Ljava/lang/String;", Static: true},
			MethodInfo{Name: "equals", Desc: "(Ljava/lang/Object;)Z"},
		)))
	e.add(cls("java/lang/Class", "java/lang/Object", isFinal))
	e.add(cls("java/lang/System", "java/lang/Object", isFinal,
		fields(FieldInfo{Name: "out", Desc: "Ljava/io/PrintStream;", Static: true},
			FieldInfo{Name: "err", Desc: "Ljava/io/PrintStream;", Static: true}),
		methods(MethodInfo{Name: "currentTimeMillis", Desc: "()J", Static: true},
			MethodInfo{Name: "exit", Desc: "(I)V", Static: true})))
	e.add(cls("java/lang/Thread", "java/lang/Object", iface("java/lang/Runnable"), methods(
		MethodInfo{Name: "<init>", Desc: "()V"},
		MethodInfo{Name: "start", Desc: "()V"},
		MethodInfo{Name: "run", Desc: "()V"},
	)))
	e.add(cls("java/lang/Runnable", "java/lang/Object", isInterface, methods(
		MethodInfo{Name: "run", Desc: "()V"})))
	e.add(cls("java/lang/Comparable", "java/lang/Object", isInterface))
	e.add(cls("java/lang/CharSequence", "java/lang/Object", isInterface))
	e.add(cls("java/lang/Iterable", "java/lang/Object", isInterface))
	e.add(cls("java/lang/Cloneable", "java/lang/Object", isInterface))
	e.add(cls("java/lang/AutoCloseable", "java/lang/Object", isInterface))
	e.add(cls("java/lang/Number", "java/lang/Object", isAbstract, iface("java/io/Serializable")))
	e.add(cls("java/lang/Integer", "java/lang/Number", isFinal, iface("java/lang/Comparable"), methods(
		MethodInfo{Name: "valueOf", Desc: "(I)Ljava/lang/Integer;", Static: true},
		MethodInfo{Name: "intValue", Desc: "()I"},
		MethodInfo{Name: "parseInt", Desc: "(Ljava/lang/String;)I", Static: true},
	)))
	e.add(cls("java/lang/Long", "java/lang/Number", isFinal, iface("java/lang/Comparable")))
	e.add(cls("java/lang/Float", "java/lang/Number", isFinal, iface("java/lang/Comparable")))
	e.add(cls("java/lang/Double", "java/lang/Number", isFinal, iface("java/lang/Comparable")))
	e.add(cls("java/lang/Short", "java/lang/Number", isFinal, iface("java/lang/Comparable")))
	e.add(cls("java/lang/Byte", "java/lang/Number", isFinal, iface("java/lang/Comparable")))
	e.add(cls("java/lang/Character", "java/lang/Object", isFinal, iface("java/lang/Comparable")))
	e.add(cls("java/lang/Boolean", "java/lang/Object", isFinal, iface("java/io/Serializable")))
	e.add(cls("java/lang/Math", "java/lang/Object", isFinal, methods(
		MethodInfo{Name: "abs", Desc: "(I)I", Static: true},
		MethodInfo{Name: "max", Desc: "(II)I", Static: true},
		MethodInfo{Name: "min", Desc: "(II)I", Static: true},
	)))
	e.add(cls("java/lang/StringBuilder", "java/lang/Object", isFinal, methods(
		MethodInfo{Name: "<init>", Desc: "()V"},
		MethodInfo{Name: "append", Desc: "(Ljava/lang/String;)Ljava/lang/StringBuilder;"},
		MethodInfo{Name: "append", Desc: "(I)Ljava/lang/StringBuilder;"},
		MethodInfo{Name: "toString", Desc: "()Ljava/lang/String;"},
	)))
	e.add(cls("java/lang/StringBuffer", "java/lang/Object", isFinal))
	e.add(cls("java/lang/Enum", "java/lang/Object", isAbstract, iface("java/lang/Comparable", "java/io/Serializable")))
	e.add(cls("java/lang/ClassLoader", "java/lang/Object", isAbstract))
	e.add(cls("java/lang/Runtime", "java/lang/Object"))
	e.add(cls("java/lang/Process", "java/lang/Object", isAbstract))
	e.add(cls("java/lang/Void", "java/lang/Object", isFinal))

	// --- throwables -----------------------------------------------------
	e.add(cls("java/lang/Throwable", "java/lang/Object", iface("java/io/Serializable"), methods(
		MethodInfo{Name: "<init>", Desc: "()V"},
		MethodInfo{Name: "<init>", Desc: "(Ljava/lang/String;)V"},
		MethodInfo{Name: "getMessage", Desc: "()Ljava/lang/String;"},
	)))
	throwables := []struct{ name, super string }{
		{"java/lang/Exception", "java/lang/Throwable"},
		{"java/lang/Error", "java/lang/Throwable"},
		{"java/lang/RuntimeException", "java/lang/Exception"},
		{"java/lang/ArithmeticException", "java/lang/RuntimeException"},
		{"java/lang/NullPointerException", "java/lang/RuntimeException"},
		{"java/lang/ClassCastException", "java/lang/RuntimeException"},
		{"java/lang/ArrayIndexOutOfBoundsException", "java/lang/RuntimeException"},
		{"java/lang/IllegalArgumentException", "java/lang/RuntimeException"},
		{"java/lang/IllegalStateException", "java/lang/RuntimeException"},
		{"java/lang/UnsupportedOperationException", "java/lang/RuntimeException"},
		{"java/lang/NegativeArraySizeException", "java/lang/RuntimeException"},
		{"java/lang/InterruptedException", "java/lang/Exception"},
		{"java/lang/CloneNotSupportedException", "java/lang/Exception"},
		{"java/lang/ReflectiveOperationException", "java/lang/Exception"},
		{"java/lang/ClassNotFoundException", "java/lang/ReflectiveOperationException"},
		{"java/lang/LinkageError", "java/lang/Error"},
		{"java/lang/ClassFormatError", "java/lang/LinkageError"},
		{"java/lang/ClassCircularityError", "java/lang/LinkageError"},
		{"java/lang/NoClassDefFoundError", "java/lang/LinkageError"},
		{"java/lang/VerifyError", "java/lang/LinkageError"},
		{"java/lang/IncompatibleClassChangeError", "java/lang/LinkageError"},
		{"java/lang/AbstractMethodError", "java/lang/IncompatibleClassChangeError"},
		{"java/lang/IllegalAccessError", "java/lang/IncompatibleClassChangeError"},
		{"java/lang/InstantiationError", "java/lang/IncompatibleClassChangeError"},
		{"java/lang/NoSuchFieldError", "java/lang/IncompatibleClassChangeError"},
		{"java/lang/NoSuchMethodError", "java/lang/IncompatibleClassChangeError"},
		{"java/lang/UnsatisfiedLinkError", "java/lang/LinkageError"},
		{"java/lang/ExceptionInInitializerError", "java/lang/LinkageError"},
		{"java/lang/StackOverflowError", "java/lang/Error"},
		{"java/lang/OutOfMemoryError", "java/lang/Error"},
		{"java/lang/InternalError", "java/lang/Error"},
		{"java/io/IOException", "java/lang/Exception"},
		{"java/io/FileNotFoundException", "java/io/IOException"},
		{"java/util/MissingResourceException", "java/lang/RuntimeException"},
		{"java/util/NoSuchElementException", "java/lang/RuntimeException"},
		{"java/util/ConcurrentModificationException", "java/lang/RuntimeException"},
	}
	for _, tw := range throwables {
		e.add(cls(tw.name, tw.super, methods(
			MethodInfo{Name: "<init>", Desc: "()V"},
			MethodInfo{Name: "<init>", Desc: "(Ljava/lang/String;)V"},
		)))
	}

	// --- java.io ----------------------------------------------------------
	e.add(cls("java/io/Serializable", "java/lang/Object", isInterface))
	e.add(cls("java/io/Closeable", "java/lang/Object", isInterface, iface("java/lang/AutoCloseable")))
	e.add(cls("java/io/Flushable", "java/lang/Object", isInterface))
	e.add(cls("java/io/OutputStream", "java/lang/Object", isAbstract, iface("java/io/Closeable", "java/io/Flushable")))
	e.add(cls("java/io/FilterOutputStream", "java/io/OutputStream"))
	e.add(cls("java/io/PrintStream", "java/io/FilterOutputStream", methods(
		MethodInfo{Name: "println", Desc: "(Ljava/lang/String;)V"},
		MethodInfo{Name: "println", Desc: "(I)V"},
		MethodInfo{Name: "println", Desc: "(J)V"},
		MethodInfo{Name: "println", Desc: "(Z)V"},
		MethodInfo{Name: "println", Desc: "(Ljava/lang/Object;)V"},
		MethodInfo{Name: "println", Desc: "()V"},
		MethodInfo{Name: "print", Desc: "(Ljava/lang/String;)V"},
		MethodInfo{Name: "print", Desc: "(I)V"},
	)))
	e.add(cls("java/io/InputStream", "java/lang/Object", isAbstract, iface("java/io/Closeable")))
	e.add(cls("java/io/Reader", "java/lang/Object", isAbstract, iface("java/io/Closeable")))
	e.add(cls("java/io/Writer", "java/lang/Object", isAbstract, iface("java/io/Closeable", "java/io/Flushable")))
	e.add(cls("java/io/File", "java/lang/Object", iface("java/io/Serializable", "java/lang/Comparable")))

	// --- java.util ---------------------------------------------------------
	e.add(cls("java/util/Collection", "java/lang/Object", isInterface, iface("java/lang/Iterable")))
	e.add(cls("java/util/List", "java/lang/Object", isInterface, iface("java/util/Collection")))
	e.add(cls("java/util/Set", "java/lang/Object", isInterface, iface("java/util/Collection")))
	e.add(cls("java/util/Map", "java/lang/Object", isInterface))
	e.add(cls("java/util/Iterator", "java/lang/Object", isInterface))
	e.add(cls("java/util/Enumeration", "java/lang/Object", isInterface))
	e.add(cls("java/util/AbstractCollection", "java/lang/Object", isAbstract, iface("java/util/Collection")))
	e.add(cls("java/util/AbstractList", "java/util/AbstractCollection", isAbstract, iface("java/util/List")))
	e.add(cls("java/util/ArrayList", "java/util/AbstractList", iface("java/util/List", "java/lang/Cloneable", "java/io/Serializable"), methods(
		MethodInfo{Name: "<init>", Desc: "()V"},
		MethodInfo{Name: "add", Desc: "(Ljava/lang/Object;)Z"},
		MethodInfo{Name: "size", Desc: "()I"},
		MethodInfo{Name: "get", Desc: "(I)Ljava/lang/Object;"},
	)))
	e.add(cls("java/util/AbstractMap", "java/lang/Object", isAbstract, iface("java/util/Map")))
	e.add(cls("java/util/HashMap", "java/util/AbstractMap", iface("java/util/Map", "java/lang/Cloneable", "java/io/Serializable"), methods(
		MethodInfo{Name: "<init>", Desc: "()V"},
		MethodInfo{Name: "put", Desc: "(Ljava/lang/Object;Ljava/lang/Object;)Ljava/lang/Object;"},
		MethodInfo{Name: "get", Desc: "(Ljava/lang/Object;)Ljava/lang/Object;"},
	)))
	e.add(cls("java/util/Hashtable", "java/lang/Object", iface("java/util/Map", "java/lang/Cloneable", "java/io/Serializable")))
	e.add(cls("java/util/Vector", "java/util/AbstractList", iface("java/util/List")))
	e.add(cls("java/util/Properties", "java/util/Hashtable"))
	e.add(cls("java/util/Random", "java/lang/Object", iface("java/io/Serializable")))
	e.add(cls("java/util/Date", "java/lang/Object", iface("java/io/Serializable", "java/lang/Cloneable", "java/lang/Comparable")))
	e.add(cls("java/util/Locale", "java/lang/Object", isFinal, iface("java/lang/Cloneable", "java/io/Serializable")))

	// --- wider java.io ------------------------------------------------------
	e.add(cls("java/io/ByteArrayOutputStream", "java/io/OutputStream"))
	e.add(cls("java/io/ByteArrayInputStream", "java/io/InputStream"))
	e.add(cls("java/io/FilterInputStream", "java/io/InputStream"))
	e.add(cls("java/io/BufferedInputStream", "java/io/FilterInputStream"))
	e.add(cls("java/io/DataInputStream", "java/io/FilterInputStream", iface("java/io/DataInput")))
	e.add(cls("java/io/DataInput", "java/lang/Object", isInterface))
	e.add(cls("java/io/DataOutput", "java/lang/Object", isInterface))
	e.add(cls("java/io/DataOutputStream", "java/io/FilterOutputStream", iface("java/io/DataOutput")))
	e.add(cls("java/io/BufferedReader", "java/io/Reader"))
	e.add(cls("java/io/InputStreamReader", "java/io/Reader"))
	e.add(cls("java/io/StringWriter", "java/io/Writer"))
	e.add(cls("java/io/PrintWriter", "java/io/Writer"))
	e.add(cls("java/io/ObjectInput", "java/lang/Object", isInterface, iface("java/io/DataInput")))
	e.add(cls("java/io/ObjectOutput", "java/lang/Object", isInterface, iface("java/io/DataOutput")))
	e.add(cls("java/io/Externalizable", "java/lang/Object", isInterface, iface("java/io/Serializable")))

	// --- wider java.util ------------------------------------------------------
	e.add(cls("java/util/Queue", "java/lang/Object", isInterface, iface("java/util/Collection")))
	e.add(cls("java/util/Deque", "java/lang/Object", isInterface, iface("java/util/Queue")))
	e.add(cls("java/util/SortedMap", "java/lang/Object", isInterface, iface("java/util/Map")))
	e.add(cls("java/util/SortedSet", "java/lang/Object", isInterface, iface("java/util/Set")))
	e.add(cls("java/util/NavigableMap", "java/lang/Object", isInterface, iface("java/util/SortedMap")))
	e.add(cls("java/util/AbstractSet", "java/util/AbstractCollection", isAbstract, iface("java/util/Set")))
	e.add(cls("java/util/HashSet", "java/util/AbstractSet", iface("java/util/Set", "java/lang/Cloneable", "java/io/Serializable")))
	e.add(cls("java/util/TreeMap", "java/util/AbstractMap", iface("java/util/NavigableMap", "java/lang/Cloneable", "java/io/Serializable")))
	e.add(cls("java/util/LinkedList", "java/util/AbstractList", iface("java/util/List", "java/util/Deque", "java/lang/Cloneable", "java/io/Serializable")))
	e.add(cls("java/util/Stack", "java/util/Vector"))
	e.add(cls("java/util/BitSet", "java/lang/Object", iface("java/lang/Cloneable", "java/io/Serializable")))
	e.add(cls("java/util/Calendar", "java/lang/Object", isAbstract, iface("java/io/Serializable", "java/lang/Cloneable", "java/lang/Comparable")))
	e.add(cls("java/util/GregorianCalendar", "java/util/Calendar"))
	e.add(cls("java/util/Comparator", "java/lang/Object", isInterface))
	e.add(cls("java/util/Observable", "java/lang/Object"))
	e.add(cls("java/util/Scanner", "java/lang/Object", isFinal, iface("java/util/Iterator", "java/io/Closeable")))
	e.add(cls("java/util/StringTokenizer", "java/lang/Object", iface("java/util/Enumeration")))
	e.add(cls("java/util/ResourceBundle", "java/lang/Object", isAbstract))
	e.add(cls("java/util/TimeZone", "java/lang/Object", isAbstract, iface("java/io/Serializable", "java/lang/Cloneable")))
	e.add(cls("java/util/UUID", "java/lang/Object", isFinal, iface("java/io/Serializable", "java/lang/Comparable")))

	// --- java.lang extras / reflection / text / net -----------------------------
	e.add(cls("java/lang/ThreadGroup", "java/lang/Object"))
	e.add(cls("java/lang/ThreadLocal", "java/lang/Object"))
	e.add(cls("java/lang/SecurityManager", "java/lang/Object"))
	e.add(cls("java/lang/Package", "java/lang/Object"))
	e.add(cls("java/lang/ProcessBuilder", "java/lang/Object", isFinal))
	e.add(cls("java/lang/reflect/Field", "java/lang/Object", isFinal, iface("java/lang/reflect/Member")))
	e.add(cls("java/lang/reflect/Method", "java/lang/Object", isFinal, iface("java/lang/reflect/Member")))
	e.add(cls("java/lang/reflect/Constructor", "java/lang/Object", isFinal, iface("java/lang/reflect/Member")))
	e.add(cls("java/lang/reflect/Modifier", "java/lang/Object"))
	e.add(cls("java/lang/ref/Reference", "java/lang/Object", isAbstract))
	e.add(cls("java/lang/ref/WeakReference", "java/lang/ref/Reference"))
	e.add(cls("java/lang/ref/SoftReference", "java/lang/ref/Reference"))
	e.add(cls("java/text/Format", "java/lang/Object", isAbstract, iface("java/io/Serializable", "java/lang/Cloneable")))
	e.add(cls("java/text/DateFormat", "java/text/Format", isAbstract))
	e.add(cls("java/text/SimpleDateFormat", "java/text/DateFormat"))
	e.add(cls("java/text/NumberFormat", "java/text/Format", isAbstract))
	e.add(cls("java/net/URL", "java/lang/Object", isFinal, iface("java/io/Serializable")))
	e.add(cls("java/net/URI", "java/lang/Object", isFinal, iface("java/lang/Comparable", "java/io/Serializable")))
	e.add(cls("java/net/Socket", "java/lang/Object", iface("java/io/Closeable")))
	e.add(cls("java/net/ServerSocket", "java/lang/Object", iface("java/io/Closeable")))
	e.add(cls("java/net/InetAddress", "java/lang/Object", iface("java/io/Serializable")))
	e.add(cls("java/nio/Buffer", "java/lang/Object", isAbstract))
	e.add(cls("java/nio/ByteBuffer", "java/nio/Buffer", isAbstract, iface("java/lang/Comparable")))
	e.add(cls("java/util/concurrent/ConcurrentHashMap", "java/util/AbstractMap", iface("java/util/concurrent/ConcurrentMap", "java/io/Serializable")))
	e.add(cls("java/util/concurrent/ConcurrentMap", "java/lang/Object", isInterface, iface("java/util/Map")))
	e.add(cls("java/util/concurrent/Callable", "java/lang/Object", isInterface))
	e.add(cls("java/util/concurrent/Executor", "java/lang/Object", isInterface))
	e.add(cls("java/util/concurrent/ExecutorService", "java/lang/Object", isInterface, iface("java/util/concurrent/Executor")))
	e.add(cls("java/util/concurrent/Future", "java/lang/Object", isInterface))
	e.add(cls("java/util/concurrent/TimeUnit", "java/lang/Enum", isFinal))

	// --- java.security / misc interfaces used by mutators ------------------
	e.add(cls("java/security/PrivilegedAction", "java/lang/Object", isInterface))
	e.add(cls("java/security/PrivilegedExceptionAction", "java/lang/Object", isInterface))
	e.add(cls("java/lang/reflect/Member", "java/lang/Object", isInterface))
	e.add(cls("java/util/EventListener", "java/lang/Object", isInterface))
	e.add(cls("java/util/Observer", "java/lang/Object", isInterface))

	// --- release-skewed classes (the compatibility channel) ----------------
	// com.sun.beans.editors.EnumEditor: non-final in JRE7, final from JRE8
	// (the paper's VerifyError example for sun.beans.editors.EnumEditor).
	enumEditor := cls("com/sun/beans/editors/EnumEditor", "java/lang/Object")
	if e.Release == JRE8 || e.Release == JRE9 {
		enumEditor.Final = true
	}
	e.add(enumEditor)
	e.add(cls("sun/beans/editors/EnumEditor", "com/sun/beans/editors/EnumEditor"))

	// sun.java2d.pisces.PiscesRenderingEngine and its synthetic enum-init
	// inner class $2 (package-private; the paper's IllegalAccessError case).
	e.add(cls("sun/java2d/pisces/RenderingEngine", "java/lang/Object", isAbstract))
	e.add(cls("sun/java2d/pisces/PiscesRenderingEngine", "sun/java2d/pisces/RenderingEngine"))
	e.add(cls("sun/java2d/pisces/PiscesRenderingEngine$2", "java/lang/Object", inaccessible))

	// Classes present in JRE7 but removed later: mutants referencing them
	// load on the 7 environment and throw NoClassDefFoundError elsewhere.
	if e.Release == JRE7 || e.Release == Classpath {
		e.add(cls("sun/misc/Lock", "java/lang/Object"))
		e.add(cls("sun/tools/jar/Main7", "java/lang/Object"))
		e.add(cls("com/sun/legacy/Jre7Only", "java/lang/Object"))
	}
	if e.Release == JRE7 || e.Release == JRE8 {
		e.add(cls("sun/misc/BASE64Encoder", "java/lang/Object"))
		e.add(cls("sun/misc/Unsafe", "java/lang/Object", isFinal))
	}

	// Classes introduced in JRE8: absent under 7 and Classpath.
	if e.Release == JRE8 || e.Release == JRE9 {
		e.add(cls("java/util/Optional", "java/lang/Object", isFinal))
		e.add(cls("java/util/function/Function", "java/lang/Object", isInterface))
		e.add(cls("java/util/function/Supplier", "java/lang/Object", isInterface))
		e.add(cls("java/util/stream/Stream", "java/lang/Object", isInterface))
		e.add(cls("java/time/Instant", "java/lang/Object", isFinal, iface("java/lang/Comparable", "java/io/Serializable")))
	}
	// Classes introduced in JRE9 only.
	if e.Release == JRE9 {
		e.add(cls("java/lang/Module", "java/lang/Object", isFinal))
		e.add(cls("java/lang/StackWalker", "java/lang/Object", isFinal))
	}

	// GNU Classpath (GIJ) lacks most com.sun/sun internals.
	if e.Release == Classpath {
		delete(e.classes, "com/sun/beans/editors/EnumEditor")
		delete(e.classes, "sun/beans/editors/EnumEditor")
		delete(e.classes, "sun/misc/Unsafe")
		delete(e.classes, "sun/misc/BASE64Encoder")
		// Classpath keeps the pisces classes (it has its own Graphics2D
		// pipeline with equivalent names in this simulation) but does not
		// enforce their accessibility — GIJ's leniency, modelled in the
		// VM policy rather than here.
	}

	// The Java 9 module system encapsulates sun.* and com.sun.* types:
	// they exist but are inaccessible to unnamed-module user classes.
	if e.Release == JRE9 {
		for name, c := range e.classes {
			if strings.HasPrefix(name, "sun/") || strings.HasPrefix(name, "com/sun/") {
				c.Accessible = false
			}
		}
	}
}
