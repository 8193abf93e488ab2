program fuzz
  input integer :: n = 5
  integer :: i0, i1, i2, i3, i4, i5
  integer :: a0(0:n+1, -1:6, 0:n)
  integer :: c0(0:n)
  a0(1, 2, 3) = 4
  do i0 = n, 2, -1
    if (i0 > 8) then
      if (i0 >= 8) then
        a0(i0+1, -1*i0+6, i0-1) = i0 + 5
        a0(i0+1, i0-1, i0-1) = c0(5) + 2
      end if
      c0(-1*i0+6) = i0 + 4
      if (i0 == 0) then
        c0(i0-2) = 0
      end if
    end if
    i1 = -1
    while (i1 < 1) do
      print i0
      i2 = 3
      while (i2 < 8) do
        c0(3) = c0(i2-2) + 0
        c0(i2-2) = a0(i0, 6, 2*i1+4) + 2
        i2 = i2 + 1
      end while
      i1 = i1 + 1
    end while
    do i3 = 2, n
      if (i3 >= 3) then
        a0(i0, i3-2, i3-2) = 3
        a0(-1*i3+6, -1*i3+4, 4) = 11
        call sub0(n, 1, c0)
        c0(5) = a0(i0+6, i3-1, 2) + 0
      end if
      print i0
      do i4 = 1, i0, 2
        call sub0(n, i3, c0)
        call sub0(n, i3, c0)
      end do
      do i5 = 1, 0
        c0(2*i5+1) = 5
        c0(i3-1) = i5 + 2
      end do
    end do
    a0(3, 2*i0-4, 3) = max(i0, 3)
  end do
  print 29
end program
subroutine sub0(m, j, x)
  integer :: m, j, k
  integer :: x(0:m)
  do k = 1, m
    x(k-1) = k + j
    x(k-1) = x(k-1) + m
  end do
end subroutine
